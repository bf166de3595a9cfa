package oregami

import (
	"errors"
	"testing"
	"time"
)

func TestNormalizeRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name   string
		opts   MapOptions
		option string
	}{
		{"negative parallelism", MapOptions{Parallelism: -1}, "Parallelism"},
		{"negative timeout", MapOptions{Timeout: -time.Second}, "Timeout"},
		{"negative stage timeout", MapOptions{StageTimeout: -time.Second}, "StageTimeout"},
		{"stage timeout swallows timeout", MapOptions{Timeout: time.Second, StageTimeout: 2 * time.Second}, "StageTimeout"},
		{"stage timeout equals timeout", MapOptions{Timeout: time.Second, StageTimeout: time.Second}, "StageTimeout"},
		{"negative max tasks", MapOptions{MaxTasksPerProc: -2}, "MaxTasksPerProc"},
		{"unknown force class", MapOptions{Force: "quantum"}, "Force"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.opts.Normalize()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("got %v, want *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Fatalf("OptionError.Option = %q, want %q", oe.Option, tc.option)
			}
			if oe.Error() == "" || oe.Reason == "" {
				t.Fatal("empty error text")
			}
		})
	}
}

func TestNormalizeAcceptsValidOptions(t *testing.T) {
	valid := []MapOptions{
		{},
		{Parallelism: 0},
		{Parallelism: 8, Force: "arbitrary", Refine: true},
		{Timeout: 2 * time.Second, StageTimeout: time.Second},
		{StageTimeout: time.Second}, // no whole-pipeline bound: any stage bound is fine
		{Force: "group-theoretic"},
		{Force: "auto"}, // same as empty, as on the CLIs and the daemon
	}
	for _, opts := range valid {
		if _, err := opts.Normalize(); err != nil {
			t.Errorf("Normalize(%+v) = %v, want nil", opts, err)
		}
	}
}

func TestNormalizeReturnsCopyAndHandlesNil(t *testing.T) {
	var nilOpts *MapOptions
	got, err := nilOpts.Normalize()
	if err != nil || got == nil {
		t.Fatalf("nil receiver: got %v, %v", got, err)
	}
	in := &MapOptions{Parallelism: 3}
	out, err := in.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	out.Parallelism = 99
	out.Force = "canned"
	if in.Parallelism != 3 || in.Force != "" {
		t.Fatalf("Normalize mutated its receiver: %+v", in)
	}
}

func TestMapRejectsInvalidOptionsWithTypedError(t *testing.T) {
	comp, err := Compile(nbodySrc, map[string]int{"n": 15, "s": 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("hypercube", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = comp.Map(net, &MapOptions{Parallelism: -4})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Option != "Parallelism" {
		t.Fatalf("Map with Parallelism=-4: got %v, want *OptionError on Parallelism", err)
	}
}

func TestMapParallelismIsInvisibleInResult(t *testing.T) {
	comp, err := Compile(nbodySrc, map[string]int{"n": 15, "s": 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork("hypercube", 3)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := comp.Map(net, &MapOptions{Parallelism: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	parl, err := comp.Map(net, &MapOptions{Parallelism: 4, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < comp.NumTasks(); task++ {
		if seq.ProcessorOf(task) != parl.ProcessorOf(task) {
			t.Fatalf("task %d placed on %d sequentially but %d at parallelism 4",
				task, seq.ProcessorOf(task), parl.ProcessorOf(task))
		}
	}
	if seq.TotalIPC() != parl.TotalIPC() {
		t.Fatalf("TotalIPC differs: %v vs %v", seq.TotalIPC(), parl.TotalIPC())
	}
	a, err := seq.Render()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parl.Render()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("rendered METRICS display differs between parallelism 1 and 4")
	}
}

func TestWorkloadsReturnsCopy(t *testing.T) {
	ws := Workloads()
	if len(ws) == 0 {
		t.Fatal("no workloads")
	}
	for name := range ws {
		ws[name] = "poisoned"
	}
	ws["bogus"] = "injected"
	again := Workloads()
	if _, ok := again["bogus"]; ok {
		t.Fatal("caller mutation leaked into the registry")
	}
	for name, about := range again {
		if about == "poisoned" {
			t.Fatalf("description of %q poisoned by caller mutation", name)
		}
	}
	if _, err := CompileWorkload("nbody", nil); err != nil {
		t.Fatalf("registry unusable after caller mutation: %v", err)
	}
}
