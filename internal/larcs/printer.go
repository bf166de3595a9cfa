package larcs

import (
	"fmt"
	"strings"
)

// Format renders a parsed Program back to LaRCS source text that parses
// to the same program. Declarations come out in canonical order
// (algorithm, imports, consts, nodetypes, nodesymmetric, comphases,
// exphases, phases); comments and layout are not preserved. Format is a
// fixed point: Format(ParseOnly(Format(p))) == Format(p), the property
// the parser fuzz target enforces.
func Format(prog *Program) string {
	var b strings.Builder
	b.WriteString("algorithm " + prog.Name)
	if len(prog.Params) > 0 {
		b.WriteString("(" + strings.Join(prog.Params, ", ") + ")")
	}
	b.WriteString(";\n")
	if len(prog.Imports) > 0 {
		b.WriteString("import " + strings.Join(prog.Imports, ", ") + ";\n")
	}
	for _, c := range prog.Consts {
		fmt.Fprintf(&b, "const %s = %s;\n", c.Name, c.Val)
	}
	for _, nt := range prog.NodeTypes {
		dims := make([]string, len(nt.Dims))
		for i, d := range nt.Dims {
			dims[i] = formatRange(d)
		}
		fmt.Fprintf(&b, "nodetype %s %s;\n", nt.Name, strings.Join(dims, ", "))
	}
	if prog.NodeSymmetric {
		b.WriteString("nodesymmetric;\n")
	}
	for _, cp := range prog.CommPhases {
		b.WriteString("comphase " + cp.Name)
		if cp.Param != "" {
			fmt.Fprintf(&b, "(%s) in %s", cp.Param, formatRange(cp.Range))
		}
		b.WriteString(" {\n")
		for _, rule := range cp.Rules {
			b.WriteString("    " + formatRule(rule) + "\n")
		}
		b.WriteString("}\n")
	}
	for _, ep := range prog.ExecPhases {
		b.WriteString("exphase " + ep.Name)
		if ep.Cost != nil {
			b.WriteString(" cost " + ep.Cost.String())
			if ep.AtType != "" {
				fmt.Fprintf(&b, " at %s(%s)", ep.AtType, strings.Join(ep.At, ", "))
			}
		}
		b.WriteString(";\n")
	}
	if prog.PhaseExpr != nil {
		b.WriteString("phases " + formatPExpr(prog.PhaseExpr, pLevelSeq) + ";\n")
	}
	return b.String()
}

func formatRange(r RangeExpr) string {
	return r.Lo.String() + ".." + r.Hi.String()
}

func formatRule(rule CommRule) string {
	var b strings.Builder
	if len(rule.Vars) > 0 {
		b.WriteString("forall ")
		for i, v := range rule.Vars {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v + " in " + formatRange(rule.Ranges[i]))
		}
		if rule.Guard != nil {
			b.WriteString(" if " + rule.Guard.String())
		}
		b.WriteString(" : ")
	}
	b.WriteString(formatNodeRef(rule.From) + " -> " + formatNodeRef(rule.To))
	if rule.Volume != nil {
		b.WriteString(" volume " + rule.Volume.String())
	}
	b.WriteString(";")
	return b.String()
}

func formatNodeRef(ref NodeRef) string {
	idx := make([]string, len(ref.Idx))
	for i, e := range ref.Idx {
		idx[i] = e.String()
	}
	return ref.Type + "(" + strings.Join(idx, ", ") + ")"
}

// Phase-expression grammar levels, loosest to tightest. Each constructor
// prints bare only at levels its parse position allows; anything tighter
// gets wrapped in parentheses (which reset to pLevelSeq):
//
//	pLevelSeq    phases decl / inside parens  (parsePSeq)
//	pLevelPart   sequence part                (parsePForallOrPar)
//	pLevelPar    forall body                  (parsePPar)
//	pLevelRep    parallel part, rep body      (parsePRep)
//	pLevelAtom   family index base            (parsePAtom)
const (
	pLevelSeq = iota
	pLevelPart
	pLevelPar
	pLevelRep
	pLevelAtom
)

func formatPExpr(e PExpr, level int) string {
	paren := func(minLevel int, render func() string) string {
		if level > minLevel {
			return "(" + formatPExpr(e, pLevelSeq) + ")"
		}
		return render()
	}
	switch v := e.(type) {
	case PIdle:
		return "eps"
	case PRef:
		if v.Index != nil {
			return v.Name + "(" + v.Index.String() + ")"
		}
		return v.Name
	case PSeq:
		return paren(pLevelSeq, func() string {
			parts := make([]string, len(v.Parts))
			for i, p := range v.Parts {
				parts[i] = formatPExpr(p, pLevelPart)
			}
			return strings.Join(parts, "; ")
		})
	case PForall:
		return paren(pLevelPart, func() string {
			return "forall " + v.Var + " in " + formatRange(v.Range) + " : " +
				formatPExpr(v.Body, pLevelPar)
		})
	case PPar:
		return paren(pLevelPar, func() string {
			parts := make([]string, len(v.Parts))
			for i, p := range v.Parts {
				parts[i] = formatPExpr(p, pLevelRep)
			}
			return strings.Join(parts, " || ")
		})
	case PRep:
		return paren(pLevelRep, func() string {
			return formatPExpr(v.Body, pLevelRep) + "^" + formatCount(v.Count)
		})
	default:
		return fmt.Sprintf("<unknown %T>", e)
	}
}

// formatCount prints a repetition count in the restricted syntax
// parsePCount accepts: a bare nonnegative number, a bare identifier, or
// a parenthesized expression.
func formatCount(c Expr) string {
	switch v := c.(type) {
	case Num:
		if v.V >= 0 {
			return v.String()
		}
		return "(" + v.String() + ")"
	case Var:
		return v.Name
	case Binary:
		return v.String() // Binary.String is already parenthesized
	default:
		return "(" + c.String() + ")"
	}
}
