package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"oregami/internal/analysis"
)

// hotAllocAnalyzer patrols the allocation diet of ROADMAP item 1: the
// parallel pipeline regresses at 4 workers because one op allocates
// ~27.7M times and the workers fight the allocator, not each other.
// Files marked with an `//oregami:hot` comment opt into the strict
// regime: inside any loop, constructing maps, channels, slices,
// closures, pointers-to-literals, formatted strings, string
// concatenations, or boxing a concrete value into an interface
// parameter is flagged. Hoist the allocation out of the loop (one
// per-call buffer, re-sliced each iteration) or record a baseline
// entry measuring why it must stay.
var hotAllocAnalyzer = &Analyzer{
	Name:     "hotalloc",
	Doc:      "no map/slice/closure allocation or interface boxing inside loops of //oregami:hot files",
	Severity: analysis.SevWarning,
	Run:      runHotAlloc,
}

// hotMarker opts a file into the strict allocation regime.
const hotMarker = "//oregami:hot"

// isHotFile reports whether any comment in the file is the hot marker.
func isHotFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == hotMarker {
				return true
			}
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	for i, f := range p.Files {
		if p.IsTestFile(i) || !isHotFile(f) {
			continue
		}
		p.checkHotFile(f)
	}
}

// checkHotFile walks the file tracking loop depth and flags
// allocation-shaped expressions at depth >= 1.
func (p *Pass) checkHotFile(f *ast.File) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			walkLoopParts(walk, x.Init, x.Cond, x.Post)
			depth++
			ast.Inspect(x.Body, walk)
			depth--
			return false
		case *ast.RangeStmt:
			depth++
			ast.Inspect(x.Body, walk)
			depth--
			return false
		case *ast.FuncLit:
			if depth > 0 {
				p.Reportf(x, "closure allocated inside a loop in a hot file; hoist it or pass state explicitly")
			}
			// The literal's own body starts at whatever loop context it
			// executes in — unknown, so reset to cold.
			saved := depth
			depth = 0
			ast.Inspect(x.Body, walk)
			depth = saved
			return false
		case *ast.CallExpr:
			if depth > 0 {
				p.checkHotCall(x)
			}
			return true
		case *ast.CompositeLit:
			if depth > 0 {
				p.checkHotComposite(x)
			}
			return true
		case *ast.UnaryExpr:
			if depth > 0 && x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					p.Reportf(x, "pointer-to-literal allocated inside a loop in a hot file; hoist it out of the loop")
					return false // don't double-report the literal
				}
			}
			return true
		case *ast.BinaryExpr:
			if depth > 0 && x.Op == token.ADD {
				if b, ok := basicOf(p.TypeOf(x)); ok && b.Info()&types.IsString != 0 {
					p.Reportf(x, "string concatenation inside a loop in a hot file allocates; use a strings.Builder hoisted out of the loop")
					return false
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(f, walk)
}

// walkLoopParts visits the non-body parts of a for statement at the
// current (outer) depth.
func walkLoopParts(walk func(ast.Node) bool, parts ...ast.Node) {
	for _, part := range parts {
		if part != nil {
			ast.Inspect(part, walk)
		}
	}
}

// checkHotCall flags allocating builtins and formatting calls, and
// detects interface boxing when the callee signature is known.
func (p *Pass) checkHotCall(call *ast.CallExpr) {
	switch calleeName(call) {
	case "make":
		if len(call.Args) >= 1 {
			switch call.Args[0].(type) {
			case *ast.MapType:
				p.Reportf(call, "map allocated inside a loop in a hot file; hoist it and clear between iterations, or use a flat slice")
			case *ast.ChanType:
				p.Reportf(call, "channel allocated inside a loop in a hot file")
			case *ast.ArrayType:
				p.Reportf(call, "slice allocated inside a loop in a hot file; hoist it out of the loop")
			}
		}
		return
	case "new":
		p.Reportf(call, "new() inside a loop in a hot file; hoist it out of the loop")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" {
			p.Reportf(call, "fmt.%s inside a loop in a hot file allocates and boxes every argument", sel.Sel.Name)
			return
		}
	}
	p.checkBoxing(call)
}

// checkBoxing flags concrete values passed to interface parameters —
// each such argument escapes to the heap. It only speaks when both the
// callee signature and the argument type were recovered.
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				return
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				return
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg, "concrete %s boxed into interface parameter inside a loop in a hot file; add a typed fast path", at)
	}
}

// checkHotComposite flags map and slice literals in loops.
func (p *Pass) checkHotComposite(lit *ast.CompositeLit) {
	switch t := lit.Type.(type) {
	case *ast.MapType:
		p.Reportf(lit, "map literal inside a loop in a hot file; hoist it")
	case *ast.ArrayType:
		if t.Len == nil {
			p.Reportf(lit, "slice literal inside a loop in a hot file; hoist it out of the loop")
		}
	}
}
