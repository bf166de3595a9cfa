package oregami

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	makeTargetRE = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeRefRE    = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([A-Za-z0-9_-]+)`)
	codeSpanRE   = regexp.MustCompile("`([^`]+)`")
)

// shellFence reports whether a fenced block's info string marks it as
// shell commands; an untagged fence is taken as shell too.
func shellFence(info string) bool {
	switch strings.TrimSpace(info) {
	case "", "sh", "bash", "shell", "console":
		return true
	}
	return false
}

// markdownMakeRefs returns every `make <target>` written as a command
// in a markdown file: inside backtick spans, or on the lines of a
// shell-fenced block. Prose ("make it hold") is never a command.
func markdownMakeRefs(doc string) []string {
	var refs []string
	inFence, shell := false, false
	for _, line := range strings.Split(doc, "\n") {
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			shell = inFence && shellFence(strings.TrimPrefix(trimmed, "```"))
			continue
		}
		var code []string
		switch {
		case inFence && shell:
			code = []string{line}
		case !inFence:
			for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				code = append(code, m[1])
			}
		}
		for _, c := range code {
			for _, m := range makeRefRE.FindAllStringSubmatch(c, -1) {
				refs = append(refs, m[1])
			}
		}
	}
	return refs
}

// workflowMakeRefs returns every `make <target>` a GitHub Actions
// workflow runs: on `run:` lines and in the lines of `run: |` blocks.
func workflowMakeRefs(doc string) []string {
	var refs []string
	blockIndent := -1 // indentation of the open `run: |` key, -1 if none
	for _, line := range strings.Split(doc, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		trimmed := strings.TrimSpace(line)
		var cmd string
		switch {
		case blockIndent >= 0 && (trimmed == "" || indent > blockIndent):
			cmd = trimmed
		default:
			blockIndent = -1
			key := strings.TrimPrefix(trimmed, "- ")
			if !strings.HasPrefix(key, "run:") {
				continue
			}
			cmd = strings.TrimSpace(strings.TrimPrefix(key, "run:"))
			if cmd == "|" || cmd == "|-" || cmd == ">" {
				blockIndent = indent
				continue
			}
		}
		for _, m := range makeRefRE.FindAllStringSubmatch(cmd, -1) {
			refs = append(refs, m[1])
		}
	}
	return refs
}

// TestMakeTargetsExist keeps docs and CI in step with the Makefile:
// every `make <target>` that README.md, docs/*.md, the verify skill or
// the CI workflow tells someone to run must name a real target.
func TestMakeTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	if !targets["check"] || !targets["alloc"] {
		t.Fatalf("Makefile targets %v: parser found no check/alloc target", targets)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".claude/skills/verify/SKILL.md")
	files := map[string][]string{}
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = markdownMakeRefs(string(b))
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	files[".github/workflows/ci.yml"] = workflowMakeRefs(string(ci))

	seen := 0
	for path, refs := range files {
		for _, ref := range refs {
			seen++
			if !targets[ref] {
				t.Errorf("%s runs `make %s`, but the Makefile has no %q target", path, ref, ref)
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no make references at all: the extractors are broken")
	}
}

func TestMakeRefExtractors(t *testing.T) {
	md := strings.Join([]string{
		"Three rules make it hold; `make check` runs them.",
		"```sh",
		"make fuzz FUZZTIME=1s   # every target",
		"```",
		"```go",
		"// make sure this is skipped",
		"```",
		"Run `go vet && make lint` first.",
	}, "\n")
	if got, want := strings.Join(markdownMakeRefs(md), ","), "check,fuzz,lint"; got != want {
		t.Errorf("markdown refs = %q, want %q", got, want)
	}
	yml := strings.Join([]string{
		"      - name: make things",
		"        run: make check",
		"      - name: block",
		"        run: |",
		"          cp a b",
		"          make smoke-serve",
		"      - uses: actions/upload-artifact@v4",
		"        with:",
		"          name: make lint",
	}, "\n")
	if got, want := strings.Join(workflowMakeRefs(yml), ","), "check,smoke-serve"; got != want {
		t.Errorf("workflow refs = %q, want %q", got, want)
	}
}
