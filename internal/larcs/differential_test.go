package larcs

// The compile referee: the tree-walking compiler this package shipped
// before Compile lowered programs to slot-indexed closures, kept
// verbatim (helpers renamed with a ref prefix). TestCompileMatchesReferee
// and FuzzCompileDifferential (fuzz_test.go) require Compile to agree
// with it on labels, edges and weight bits, the CSR, exec costs, the
// ground phase expression, nodetypes and error text.

import (
	"fmt"
	"strings"

	"oregami/internal/graph"
	"oregami/internal/phase"
)

// RefCompile exposes the referee to the external test package, which
// can import the workload corpus.
var RefCompile = refCompile

// refCompile expands the program for the given parameter/import bindings.
// All declared params and imports must be bound.
func refCompile(prog *Program, bindings map[string]int, lim Limits) (*Compiled, error) {
	lim = lim.withDefaults()
	en := refEnv{}
	for _, p := range prog.Params {
		v, ok := bindings[p]
		if !ok {
			return nil, fmt.Errorf("larcs: parameter %q not bound", p)
		}
		en[p] = v
	}
	for _, im := range prog.Imports {
		v, ok := bindings[im]
		if !ok {
			return nil, fmt.Errorf("larcs: imported variable %q not bound", im)
		}
		en[im] = v
	}
	for _, c := range prog.Consts {
		v, err := refEval(c.Val, en)
		if err != nil {
			return nil, err
		}
		en[c.Name] = v
	}

	// Node types.
	var infos []NodeTypeInfo
	total := 0
	for _, nt := range prog.NodeTypes {
		info := NodeTypeInfo{Name: nt.Name, Offset: total, Size: 1}
		for _, d := range nt.Dims {
			lo, err := refEval(d.Lo, en)
			if err != nil {
				return nil, err
			}
			hi, err := refEval(d.Hi, en)
			if err != nil {
				return nil, err
			}
			if hi < lo {
				return nil, fmt.Errorf("larcs: nodetype %q has empty range %d..%d", nt.Name, lo, hi)
			}
			info.Lo = append(info.Lo, lo)
			info.Hi = append(info.Hi, hi)
			info.Extent = append(info.Extent, hi-lo+1)
			info.Size *= hi - lo + 1
			if info.Size > lim.MaxTasks {
				return nil, fmt.Errorf("larcs: nodetype %q exceeds task limit %d", nt.Name, lim.MaxTasks)
			}
		}
		total += info.Size
		if total > lim.MaxTasks {
			return nil, fmt.Errorf("larcs: program exceeds task limit %d", lim.MaxTasks)
		}
		infos = append(infos, info)
	}

	g := graph.New(prog.Name, total)
	// Labels: single 1-D nodetype keeps the paper's bare numeric labels;
	// everything else gets name(i,j,...) labels.
	if len(infos) == 1 && len(infos[0].Lo) == 1 {
		for t := 0; t < total; t++ {
			g.Labels[t] = fmt.Sprint(infos[0].Lo[0] + t)
		}
	} else {
		for ti := range infos {
			info := &infos[ti]
			for t := info.Offset; t < info.Offset+info.Size; t++ {
				idx := info.Index(t)
				parts := make([]string, len(idx))
				for d, v := range idx {
					parts[d] = fmt.Sprint(v)
				}
				g.Labels[t] = fmt.Sprintf("%s(%s)", info.Name, strings.Join(parts, ","))
			}
		}
	}
	typeByName := make(map[string]*NodeTypeInfo)
	for i := range infos {
		typeByName[infos[i].Name] = &infos[i]
	}

	// Communication phases. Parameterized families expand to one phase
	// per range value, named name(v).
	edgeCount := 0
	commNames := make(map[string]bool)
	for _, cp := range prog.CommPhases {
		if cp.Param == "" {
			gp := g.AddCommPhase(cp.Name)
			commNames[cp.Name] = true
			for _, rule := range cp.Rules {
				if err := refExpandRule(g, gp, rule, en, typeByName, lim, &edgeCount); err != nil {
					return nil, err
				}
			}
			continue
		}
		lo, err := refEval(cp.Range.Lo, en)
		if err != nil {
			return nil, err
		}
		hi, err := refEval(cp.Range.Hi, en)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("larcs: phase family %q has empty range %d..%d", cp.Name, lo, hi)
		}
		if hi-lo+1 > 4096 {
			return nil, fmt.Errorf("larcs: phase family %q expands to %d phases", cp.Name, hi-lo+1)
		}
		for v := lo; v <= hi; v++ {
			name := fmt.Sprintf("%s(%d)", cp.Name, v)
			gp := g.AddCommPhase(name)
			commNames[name] = true
			famEnv := refEnv{}
			for k, val := range en {
				famEnv[k] = val
			}
			famEnv[cp.Param] = v
			for _, rule := range cp.Rules {
				if err := refExpandRule(g, gp, rule, famEnv, typeByName, lim, &edgeCount); err != nil {
					return nil, err
				}
			}
		}
	}

	// Execution phases.
	for _, ep := range prog.ExecPhases {
		if ep.Cost == nil {
			g.AddExecPhase(ep.Name, 1)
			continue
		}
		if ep.AtType == "" {
			c, err := refEval(ep.Cost, en)
			if err != nil {
				return nil, err
			}
			g.AddExecPhase(ep.Name, float64(c))
			continue
		}
		// Per-task cost over one nodetype; other tasks cost 0.
		info := typeByName[ep.AtType]
		gp := g.AddExecPhase(ep.Name, 0)
		gp.Cost = make([]float64, total)
		idx := append([]int(nil), info.Lo...)
		for {
			local := refEnv{}
			for k, v := range en {
				local[k] = v
			}
			for d, name := range ep.At {
				local[name] = idx[d]
			}
			c, err := refEval(ep.Cost, local)
			if err != nil {
				return nil, err
			}
			id, err := info.TaskID(idx)
			if err != nil {
				return nil, err
			}
			gp.Cost[id] = float64(c)
			if !increment(idx, info.Lo, info.Hi) {
				break
			}
		}
	}

	// Phase expression.
	var ground phase.Expr
	if prog.PhaseExpr != nil {
		var err error
		ground, err = refGroundPExpr(prog.PhaseExpr, en, commNames)
		if err != nil {
			return nil, err
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Compiled{
		Program:   prog,
		Bindings:  bindings,
		Graph:     g,
		Phases:    ground,
		NodeTypes: infos,
	}, nil
}

// refExpandRule iterates the rule's quantifiers and emits edges.
func refExpandRule(g *graph.TaskGraph, gp *graph.CommPhase, rule CommRule, en refEnv,
	types map[string]*NodeTypeInfo, lim Limits, edgeCount *int) error {
	local := refEnv{}
	for k, v := range en {
		local[k] = v
	}
	var rec func(d int) error
	rec = func(d int) error {
		if d < len(rule.Vars) {
			lo, err := refEval(rule.Ranges[d].Lo, local)
			if err != nil {
				return err
			}
			hi, err := refEval(rule.Ranges[d].Hi, local)
			if err != nil {
				return err
			}
			for v := lo; v <= hi; v++ {
				local[rule.Vars[d]] = v
				if err := rec(d + 1); err != nil {
					return err
				}
			}
			delete(local, rule.Vars[d])
			return nil
		}
		if rule.Guard != nil {
			ok, err := refEval(rule.Guard, local)
			if err != nil {
				return err
			}
			if ok == 0 {
				return nil
			}
		}
		from, err := refResolveRef(rule.From, local, types)
		if err != nil {
			return err
		}
		to, err := refResolveRef(rule.To, local, types)
		if err != nil {
			return err
		}
		vol := 1
		if rule.Volume != nil {
			vol, err = refEval(rule.Volume, local)
			if err != nil {
				return err
			}
			if vol < 0 {
				return fmt.Errorf("larcs: negative volume %d in phase %q", vol, gp.Name)
			}
		}
		*edgeCount++
		if *edgeCount > lim.MaxEdges {
			return fmt.Errorf("larcs: program exceeds edge limit %d", lim.MaxEdges)
		}
		g.AddEdge(gp, from, to, float64(vol))
		return nil
	}
	return rec(0)
}

func refResolveRef(ref NodeRef, en refEnv, types map[string]*NodeTypeInfo) (int, error) {
	info := types[ref.Type]
	idx := make([]int, len(ref.Idx))
	for d, e := range ref.Idx {
		v, err := refEval(e, en)
		if err != nil {
			return 0, err
		}
		idx[d] = v
	}
	return info.TaskID(idx)
}

// refGroundPExpr evaluates repetition counts, family indices, and
// parameterized for-loops to produce a ground phase expression.
func refGroundPExpr(e PExpr, en refEnv, commNames map[string]bool) (phase.Expr, error) {
	switch v := e.(type) {
	case PIdle:
		return phase.Idle{}, nil
	case PRef:
		if v.Index != nil {
			ix, err := refEval(v.Index, en)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s(%d)", v.Name, ix)
			if !commNames[name] {
				return nil, fmt.Errorf("larcs: phase %s is outside the family's range", name)
			}
			return phase.Ref{Name: name, Comm: true}, nil
		}
		return phase.Ref{Name: v.Name, Comm: commNames[v.Name]}, nil
	case PSeq:
		parts := make([]phase.Expr, len(v.Parts))
		for i, p := range v.Parts {
			g, err := refGroundPExpr(p, en, commNames)
			if err != nil {
				return nil, err
			}
			parts[i] = g
		}
		return phase.Seq{Parts: parts}, nil
	case PPar:
		parts := make([]phase.Expr, len(v.Parts))
		for i, p := range v.Parts {
			g, err := refGroundPExpr(p, en, commNames)
			if err != nil {
				return nil, err
			}
			parts[i] = g
		}
		return phase.Par{Parts: parts}, nil
	case PRep:
		body, err := refGroundPExpr(v.Body, en, commNames)
		if err != nil {
			return nil, err
		}
		count, err := refEval(v.Count, en)
		if err != nil {
			return nil, err
		}
		if count < 0 {
			return nil, fmt.Errorf("larcs: repetition count %s evaluates to %d", v.Count, count)
		}
		return phase.Rep{Body: body, Count: count}, nil
	case PForall:
		lo, err := refEval(v.Range.Lo, en)
		if err != nil {
			return nil, err
		}
		hi, err := refEval(v.Range.Hi, en)
		if err != nil {
			return nil, err
		}
		var parts []phase.Expr
		for val := lo; val <= hi; val++ {
			inner := refEnv{}
			for k, x := range en {
				inner[k] = x
			}
			inner[v.Var] = val
			g, err := refGroundPExpr(v.Body, inner, commNames)
			if err != nil {
				return nil, err
			}
			parts = append(parts, g)
		}
		switch len(parts) {
		case 0:
			return phase.Idle{}, nil
		case 1:
			return parts[0], nil
		}
		return phase.Seq{Parts: parts}, nil
	}
	return nil, fmt.Errorf("larcs: unknown phase expression %T", e)
}

// refEnv binds identifiers to integer values during compilation. Booleans
// are represented as 0/1, as in the guard expressions.
type refEnv map[string]int

// eval evaluates an arithmetic/boolean expression. Division and modulo
// by zero are reported as errors. "mod" is mathematical (result in
// [0, m) for m > 0), matching the paper's label arithmetic such as
// (i+1) mod n; "/" and "div" truncate toward zero like the host
// languages LaRCS imports variables from.
func refEval(e Expr, en refEnv) (int, error) {
	switch v := e.(type) {
	case Num:
		return v.V, nil
	case Var:
		val, ok := en[v.Name]
		if !ok {
			return 0, errf(v.Line, v.Col, "unbound identifier %q at evaluation time", v.Name)
		}
		return val, nil
	case Unary:
		x, err := refEval(v.X, en)
		if err != nil {
			return 0, err
		}
		if v.Op == "-" {
			return -x, nil
		}
		// not
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	case Binary:
		l, err := refEval(v.L, en)
		if err != nil {
			return 0, err
		}
		// Short-circuit booleans.
		switch v.Op {
		case "and":
			if l == 0 {
				return 0, nil
			}
			r, err := refEval(v.R, en)
			if err != nil {
				return 0, err
			}
			return refB2i(r != 0), nil
		case "or":
			if l != 0 {
				return 1, nil
			}
			r, err := refEval(v.R, en)
			if err != nil {
				return 0, err
			}
			return refB2i(r != 0), nil
		}
		r, err := refEval(v.R, en)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/", "div":
			if r == 0 {
				return 0, &EvalError{Line: v.Line, Col: v.Col, Op: v.Op, Err: ErrDivideByZero}
			}
			return l / r, nil
		case "mod":
			if r == 0 {
				return 0, &EvalError{Line: v.Line, Col: v.Col, Op: v.Op, Err: ErrDivideByZero}
			}
			m := l % r
			if m != 0 && (m < 0) != (r < 0) {
				m += r
			}
			return m, nil
		case "^":
			if r < 0 {
				return 0, errf(v.Line, v.Col, "negative exponent %d", r)
			}
			pow := 1
			for i := 0; i < r; i++ {
				pow *= l
				if pow > 1<<40 || pow < -(1<<40) {
					return 0, errf(v.Line, v.Col, "exponentiation overflows")
				}
			}
			return pow, nil
		case "==":
			return refB2i(l == r), nil
		case "!=":
			return refB2i(l != r), nil
		case "<":
			return refB2i(l < r), nil
		case "<=":
			return refB2i(l <= r), nil
		case ">":
			return refB2i(l > r), nil
		case ">=":
			return refB2i(l >= r), nil
		}
		return 0, errf(v.Line, v.Col, "unknown operator %q", v.Op)
	}
	return 0, errf(0, 0, "unknown expression node %T", e)
}

func refB2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
