package larcs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"oregami/internal/graph"
	"oregami/internal/phase"
)

// Limits bound the expansion of a LaRCS program, guarding against
// runaway parameter values. Zero fields mean the corresponding default.
// MaxEdges also bounds the quantifier steps (see iterations).
type Limits struct {
	MaxTasks int // default 1 << 20
	MaxEdges int // default 1 << 22
	// Ctx, when set, is checked every ctxCheckSteps quantifier steps; a
	// done context stops the compile with an error wrapping Ctx.Err(),
	// so a request deadline bounds a spinning program long before the
	// iteration limit does.
	Ctx context.Context
}

// ctxCheckSteps is the number of quantifier steps between checks of
// Limits.Ctx: a power of two, and well under a millisecond of stepping.
const ctxCheckSteps = 1 << 14

// iterations is the number of quantifier steps a compile may take,
// counted at every depth of every comm rule and phase-expression
// forall: max(64·MaxEdges, 1<<24). Guarded-out steps emit no edge, so
// without this bound a rule such as `forall i in 0..2^40 if i < 0`
// would spin for hours under the edge limit.
func (l Limits) iterations() int {
	if l.MaxEdges > math.MaxInt/64 {
		return math.MaxInt
	}
	return max(64*l.MaxEdges, 1<<24)
}

func (l Limits) withDefaults() Limits {
	if l.MaxTasks == 0 {
		l.MaxTasks = 1 << 20
	}
	if l.MaxEdges == 0 {
		l.MaxEdges = 1 << 22
	}
	return l
}

// NodeTypeInfo describes one compiled nodetype: its dense task-id block
// and its evaluated dimension bounds.
type NodeTypeInfo struct {
	Name   string
	Offset int   // first task id of this type
	Size   int   // number of tasks of this type
	Lo, Hi []int // inclusive bounds per dimension
	Extent []int // Hi[d]-Lo[d]+1 per dimension
}

// TaskID linearizes a multi-dimensional node index (row-major) into a
// global task id, or returns an error if any index is out of bounds.
func (nt *NodeTypeInfo) TaskID(idx []int) (int, error) {
	if len(idx) != len(nt.Lo) {
		return 0, fmt.Errorf("larcs: nodetype %q expects %d indices, got %d", nt.Name, len(nt.Lo), len(idx))
	}
	id := 0
	for d, v := range idx {
		if v < nt.Lo[d] || v > nt.Hi[d] {
			return 0, fmt.Errorf("larcs: nodetype %q index %d = %d out of range %d..%d",
				nt.Name, d, v, nt.Lo[d], nt.Hi[d])
		}
		id = id*nt.Extent[d] + (v - nt.Lo[d])
	}
	return nt.Offset + id, nil
}

// Index inverts TaskID for a task belonging to this nodetype.
func (nt *NodeTypeInfo) Index(task int) []int {
	rel := task - nt.Offset
	idx := make([]int, len(nt.Lo))
	for d := len(nt.Lo) - 1; d >= 0; d-- {
		idx[d] = rel%nt.Extent[d] + nt.Lo[d]
		rel /= nt.Extent[d]
	}
	return idx
}

// Compiled is the output of compiling a LaRCS program against concrete
// parameter bindings: the data structures MAPPER and METRICS consume.
type Compiled struct {
	Program  *Program
	Bindings map[string]int
	Graph    *graph.TaskGraph
	// Phases is the ground phase expression, or nil if the program has
	// no phases declaration.
	Phases    phase.Expr
	NodeTypes []NodeTypeInfo
}

// Compile expands the program for the given parameter/import bindings.
// All declared params and imports must be bound.
//
// Compilation lowers and then expands each declaration in order. The
// lowering pass gives every identifier a frame slot and turns every
// expression into a closure over the frame (eval.go); the expansion
// runs those closures over one reused frame, so an edge costs no
// allocation beyond its slot in the phase's edge slice. Lowering is
// O(AST) per call and leaves no state on the Program, so concurrent
// compiles of one program are safe.
func (prog *Program) Compile(bindings map[string]int, lim Limits) (*Compiled, error) {
	lim = lim.withDefaults()
	c := &compiler{scope: scope{deepest: -1}, maxEdges: lim.MaxEdges, maxSteps: lim.iterations(), ctx: lim.Ctx}
	for _, p := range prog.Params {
		v, ok := bindings[p]
		if !ok {
			return nil, fmt.Errorf("larcs: parameter %q not bound", p)
		}
		c.frame[c.bind(p)] = v
	}
	for _, im := range prog.Imports {
		v, ok := bindings[im]
		if !ok {
			return nil, fmt.Errorf("larcs: imported variable %q not bound", im)
		}
		c.frame[c.bind(im)] = v
	}
	for _, cd := range prog.Consts {
		v, err := c.eval(cd.Val)
		if err != nil {
			return nil, err
		}
		c.frame[c.bind(cd.Name)] = v
	}

	// Node types.
	total := 0
	for _, nt := range prog.NodeTypes {
		info := NodeTypeInfo{Name: nt.Name, Offset: total, Size: 1}
		for _, d := range nt.Dims {
			lo, err := c.eval(d.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := c.eval(d.Hi)
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
		c.infos = append(c.infos, info)
	}

	// The graph is built around its labels rather than through
	// graph.New, whose "0".."n-1" labels most programs would overwrite.
	g := &graph.TaskGraph{Name: prog.Name, NumTasks: total, Labels: taskLabels(c.infos, total)}

	// Communication phases. Parameterized families expand to one phase
	// per range value, named name(v), sharing one lowering of the rules.
	commNames := make(map[string]bool)
	for _, cp := range prog.CommPhases {
		if cp.Param == "" {
			rules := c.lowerRules(cp.Rules)
			gp := g.AddCommPhase(cp.Name)
			commNames[cp.Name] = true
			if err := c.expand(gp, rules); err != nil {
				return nil, err
			}
			continue
		}
		lo, err := c.eval(cp.Range.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.eval(cp.Range.Hi)
		if err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, fmt.Errorf("larcs: phase family %q has empty range %d..%d", cp.Name, lo, hi)
		}
		if hi-lo+1 > 4096 {
			return nil, fmt.Errorf("larcs: phase family %q expands to %d phases", cp.Name, hi-lo+1)
		}
		param := c.bind(cp.Param)
		rules := c.lowerRules(cp.Rules)
		c.unbind(1)
		for v := lo; v <= hi; v++ {
			name := fmt.Sprintf("%s(%d)", cp.Name, v)
			gp := g.AddCommPhase(name)
			commNames[name] = true
			c.frame[param] = v
			if err := c.expand(gp, rules); err != nil {
				return nil, err
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
			cost, err := c.eval(ep.Cost)
			if err != nil {
				return nil, err
			}
			g.AddExecPhase(ep.Name, float64(cost))
			continue
		}
		// Per-task cost over one nodetype; other tasks cost 0.
		info := c.nodeType(ep.AtType)
		if info == nil {
			return nil, fmt.Errorf("larcs: undeclared nodetype %q in cost 'at'", ep.AtType)
		}
		if len(ep.At) > len(info.Lo) {
			return nil, fmt.Errorf("larcs: nodetype %q has %d dimension(s), cost 'at' has %d variable(s)",
				ep.AtType, len(info.Lo), len(ep.At))
		}
		at := len(c.names)
		for _, name := range ep.At {
			c.bind(name)
		}
		cost := c.lower(ep.Cost)
		c.unbind(len(ep.At))
		gp := g.AddExecPhase(ep.Name, 0)
		gp.Cost = make([]float64, total)
		// Tasks of a nodetype are numbered row-major, the order
		// increment walks the index box in.
		idx := append([]int(nil), info.Lo...)
		for id := info.Offset; ; id++ {
			copy(c.frame[at:at+len(ep.At)], idx)
			v, err := cost(c.frame)
			if err != nil {
				return nil, err
			}
			gp.Cost[id] = float64(v)
			if !increment(idx, info.Lo, info.Hi) {
				break
			}
		}
	}

	// Phase expression.
	var ground phase.Expr
	if prog.PhaseExpr != nil {
		var err error
		ground, err = c.lowerPExpr(prog.PhaseExpr, commNames)(c.frame)
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
		NodeTypes: c.infos,
	}, nil
}

// compiler is one Compile call's state: the scope and its frame, the
// evaluated nodetypes, and the edge and iteration budgets.
type compiler struct {
	scope
	infos    []NodeTypeInfo
	maxEdges int
	edges    int // edges emitted so far, across all phases
	maxSteps int
	steps    int             // quantifier steps taken so far, at every depth
	ctx      context.Context // Limits.Ctx; nil never stops the compile
}

// step counts one quantifier step against the iteration limit and,
// every ctxCheckSteps steps, checks the compile's context.
func (c *compiler) step() error {
	c.steps++
	if c.steps > c.maxSteps {
		return fmt.Errorf("larcs: program exceeds iteration limit %d", c.maxSteps)
	}
	if c.ctx != nil && c.steps&(ctxCheckSteps-1) == 0 {
		if err := c.ctx.Err(); err != nil {
			return fmt.Errorf("larcs: compile stopped after %d steps: %w", c.steps, err)
		}
	}
	return nil
}

// eval lowers e and evaluates it once against the current frame.
func (c *compiler) eval(e Expr) (int, error) { return c.lower(e)(c.frame) }

// nodeType returns the nodetype named name, the last one if hand-built
// programs declare it twice, or nil.
func (c *compiler) nodeType(name string) *NodeTypeInfo {
	for i := len(c.infos) - 1; i >= 0; i-- {
		if c.infos[i].Name == name {
			return &c.infos[i]
		}
	}
	return nil
}

// loweredRule is a CommRule over frame slots: a quantifier per variable,
// then an optional guard, the two endpoints and an optional volume.
type loweredRule struct {
	quant    []quantifier
	guard    evalFn // nil: every combination emits an edge
	from, to loweredRef
	volume   evalFn // nil: volume 1
	// sized is set when the edge count is the product of the range
	// extents: there is no guard, and no range reads a quantifier.
	sized bool
}

// quantifier binds one rule variable's slot to each value of lo..hi.
type quantifier struct {
	slot   int
	lo, hi evalFn
}

// loweredRef resolves one NodeRef: its nodetype is looked up once, and
// one index buffer is reused by every evaluation.
type loweredRef struct {
	typ  string
	info *NodeTypeInfo // nil for an undeclared nodetype
	idx  []operand
	buf  []int
}

func (c *compiler) lowerRules(rules []CommRule) []loweredRule {
	out := make([]loweredRule, len(rules))
	for i, rule := range rules {
		r := &out[i]
		base := len(c.names)
		c.deepest = -1
		r.quant = make([]quantifier, len(rule.Vars))
		for d, v := range rule.Vars {
			// A range is lowered before its own variable is bound, so
			// it sees only the enclosing quantifiers.
			q := &r.quant[d]
			q.lo, q.hi = c.lower(rule.Ranges[d].Lo), c.lower(rule.Ranges[d].Hi)
			q.slot = c.bind(v)
		}
		r.sized = rule.Guard == nil && c.deepest < base
		if rule.Guard != nil {
			r.guard = c.lower(rule.Guard)
		}
		r.from, r.to = c.lowerRef(rule.From), c.lowerRef(rule.To)
		if rule.Volume != nil {
			r.volume = c.lower(rule.Volume)
		}
		c.unbind(len(rule.Vars))
	}
	return out
}

func (c *compiler) lowerRef(ref NodeRef) loweredRef {
	lr := loweredRef{
		typ:  ref.Type,
		info: c.nodeType(ref.Type),
		idx:  make([]operand, len(ref.Idx)),
		buf:  make([]int, len(ref.Idx)),
	}
	for d, e := range ref.Idx {
		lr.idx[d] = c.operand(e)
	}
	return lr
}

// task evaluates the reference's indices and returns its task id.
func (r *loweredRef) task(f []int) (int, error) {
	for d := range r.idx {
		v, err := r.idx[d].get(f)
		if err != nil {
			return 0, err
		}
		r.buf[d] = v
	}
	if r.info == nil {
		return 0, fmt.Errorf("larcs: undeclared nodetype %q", r.typ)
	}
	return r.info.TaskID(r.buf)
}

// expand emits the edges of one phase (one family member) in rule
// order. The edge slice is sized up front from the rules whose count is
// known, capped at the remaining edge budget so that no program
// allocates ahead of the limit check.
func (c *compiler) expand(gp *graph.CommPhase, rules []loweredRule) error {
	want := 0
	for i := range rules {
		want += rules[i].count(c.frame, c.maxEdges-c.edges-want)
	}
	if want > 0 {
		gp.Edges = make([]graph.Edge, 0, want)
	}
	for i := range rules {
		if err := c.run(gp, &rules[i], 0); err != nil {
			return err
		}
	}
	return nil
}

// count returns how many edges r emits, at most budget, or 0 when that
// is not known up front: r is not sized, or a range bound fails to
// evaluate (the expansion reports the failure in its turn).
func (r *loweredRule) count(f []int, budget int) int {
	if !r.sized || budget <= 0 {
		return 0
	}
	n := 1
	for _, q := range r.quant {
		lo, err := q.lo(f)
		if err != nil {
			return 0
		}
		hi, err := q.hi(f)
		if err != nil {
			return 0
		}
		if hi < lo {
			return 0
		}
		// hi-lo is the extent minus one, exact as unsigned.
		if ext := uint(hi - lo); ext >= uint(budget/n) {
			n = budget
		} else {
			n *= int(ext) + 1
		}
	}
	return n
}

// run iterates quantifier d of r and everything inside it.
func (c *compiler) run(gp *graph.CommPhase, r *loweredRule, d int) error {
	if d == len(r.quant) {
		return c.emit(gp, r)
	}
	q := &r.quant[d]
	lo, err := q.lo(c.frame)
	if err != nil {
		return err
	}
	hi, err := q.hi(c.frame)
	if err != nil {
		return err
	}
	if hi < lo {
		return nil
	}
	// The loop exits on v == hi rather than v > hi, which v++ would
	// never reach when hi is math.MaxInt.
	for v := lo; ; v++ {
		if err := c.step(); err != nil {
			return err
		}
		c.frame[q.slot] = v
		if err := c.run(gp, r, d+1); err != nil {
			return err
		}
		if v == hi {
			return nil
		}
	}
}

// emit evaluates the guard, endpoints and volume at the current
// quantifier values and appends the edge.
func (c *compiler) emit(gp *graph.CommPhase, r *loweredRule) error {
	f := c.frame
	if r.guard != nil {
		ok, err := r.guard(f)
		if err != nil {
			return err
		}
		if ok == 0 {
			return nil
		}
	}
	from, err := r.from.task(f)
	if err != nil {
		return err
	}
	to, err := r.to.task(f)
	if err != nil {
		return err
	}
	vol := 1
	if r.volume != nil {
		vol, err = r.volume(f)
		if err != nil {
			return err
		}
		if vol < 0 {
			return fmt.Errorf("larcs: negative volume %d in phase %q", vol, gp.Name)
		}
	}
	c.edges++
	if c.edges > c.maxEdges {
		return fmt.Errorf("larcs: program exceeds edge limit %d", c.maxEdges)
	}
	// TaskID bounds both endpoints and vol >= 0, which is all AddEdge
	// would check.
	gp.Edges = append(gp.Edges, graph.Edge{From: from, To: to, Weight: float64(vol)})
	return nil
}

// taskLabels renders every task's label into one backing string: bare
// numbers for a single 1-D nodetype (the paper's labels), name(i,j,...)
// otherwise. The text is what fmt.Sprint and fmt.Sprintf("%s(%s)") give.
func taskLabels(infos []NodeTypeInfo, total int) []string {
	bare := len(infos) == 1 && len(infos[0].Lo) == 1
	var num [20]byte
	size, dims := 0, 0
	for i := range infos {
		info := &infos[i]
		per := 0
		if !bare {
			per = len(info.Name) + 2 + len(info.Lo) // name, parens, commas
		}
		for d := range info.Lo {
			per += max(len(strconv.AppendInt(num[:0], int64(info.Lo[d]), 10)),
				len(strconv.AppendInt(num[:0], int64(info.Hi[d]), 10)))
		}
		size += per * info.Size
		dims = max(dims, len(info.Lo))
	}
	// Each label is a substring of the builder's buffer; bytes a
	// strings.Builder has written never change, so the substrings stay
	// valid even if the size estimate were short and the buffer moved.
	var sb strings.Builder
	sb.Grow(size)
	labels := make([]string, total)
	idx := make([]int, 0, dims)
	t := 0
	for i := range infos {
		info := &infos[i]
		idx = append(idx[:0], info.Lo...)
		for k := 0; k < info.Size; k++ {
			start := sb.Len()
			if !bare {
				sb.WriteString(info.Name)
				sb.WriteByte('(')
			}
			for d, v := range idx {
				if d > 0 {
					sb.WriteByte(',')
				}
				sb.Write(strconv.AppendInt(num[:0], int64(v), 10))
			}
			if !bare {
				sb.WriteByte(')')
			}
			labels[t] = sb.String()[start:]
			t++
			increment(idx, info.Lo, info.Hi)
		}
	}
	return labels
}

// increment advances idx through the box [lo, hi] row-major; it returns
// false after the last combination.
func increment(idx, lo, hi []int) bool {
	for d := len(idx) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] <= hi[d] {
			return true
		}
		idx[d] = lo[d]
	}
	return false
}

// groundFn is a lowered phase expression: it evaluates repetition
// counts, family indices and phase-loop bounds over the frame and
// returns the ground phase expression.
type groundFn func(frame []int) (phase.Expr, error)

// lowerPExpr lowers a parametric phase expression; commNames holds
// every expanded communication phase name.
func (c *compiler) lowerPExpr(e PExpr, commNames map[string]bool) groundFn {
	switch v := e.(type) {
	case PIdle:
		return func([]int) (phase.Expr, error) { return phase.Idle{}, nil }
	case PRef:
		if v.Index != nil {
			index := c.lower(v.Index)
			return func(f []int) (phase.Expr, error) {
				ix, err := index(f)
				if err != nil {
					return nil, err
				}
				name := fmt.Sprintf("%s(%d)", v.Name, ix)
				if !commNames[name] {
					return nil, fmt.Errorf("larcs: phase %s is outside the family's range", name)
				}
				return phase.Ref{Name: name, Comm: true}, nil
			}
		}
		var ref phase.Expr = phase.Ref{Name: v.Name, Comm: commNames[v.Name]}
		return func([]int) (phase.Expr, error) { return ref, nil }
	case PSeq:
		parts := c.lowerPExprs(v.Parts, commNames)
		return func(f []int) (phase.Expr, error) {
			ps, err := groundAll(parts, f)
			if err != nil {
				return nil, err
			}
			return phase.Seq{Parts: ps}, nil
		}
	case PPar:
		parts := c.lowerPExprs(v.Parts, commNames)
		return func(f []int) (phase.Expr, error) {
			ps, err := groundAll(parts, f)
			if err != nil {
				return nil, err
			}
			return phase.Par{Parts: ps}, nil
		}
	case PRep:
		body, count := c.lowerPExpr(v.Body, commNames), c.lower(v.Count)
		return func(f []int) (phase.Expr, error) {
			b, err := body(f)
			if err != nil {
				return nil, err
			}
			n, err := count(f)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, fmt.Errorf("larcs: repetition count %s evaluates to %d", v.Count, n)
			}
			return phase.Rep{Body: b, Count: n}, nil
		}
	case PForall:
		lo, hi := c.lower(v.Range.Lo), c.lower(v.Range.Hi)
		s := c.bind(v.Var)
		body := c.lowerPExpr(v.Body, commNames)
		c.unbind(1)
		return func(f []int) (phase.Expr, error) {
			a, err := lo(f)
			if err != nil {
				return nil, err
			}
			b, err := hi(f)
			if err != nil {
				return nil, err
			}
			var parts []phase.Expr
			for val := a; val <= b; val++ {
				if err := c.step(); err != nil {
					return nil, err
				}
				f[s] = val
				g, err := body(f)
				if err != nil {
					return nil, err
				}
				parts = append(parts, g)
				if val == b {
					break
				}
			}
			switch len(parts) {
			case 0:
				return phase.Idle{}, nil
			case 1:
				return parts[0], nil
			}
			return phase.Seq{Parts: parts}, nil
		}
	}
	return func([]int) (phase.Expr, error) { return nil, fmt.Errorf("larcs: unknown phase expression %T", e) }
}

func (c *compiler) lowerPExprs(es []PExpr, commNames map[string]bool) []groundFn {
	out := make([]groundFn, len(es))
	for i, e := range es {
		out[i] = c.lowerPExpr(e, commNames)
	}
	return out
}

// groundAll grounds each part in order, stopping at the first error.
func groundAll(parts []groundFn, f []int) ([]phase.Expr, error) {
	out := make([]phase.Expr, len(parts))
	for i, p := range parts {
		g, err := p(f)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// DescriptionSize returns the size in bytes of the LaRCS source after
// stripping comments and whitespace — the quantity behind the paper's
// claim that a LaRCS description is an order of magnitude smaller than
// the expanded graph.
func (prog *Program) DescriptionSize() int {
	toks, err := lexAll(prog.Source)
	if err != nil {
		return len(prog.Source)
	}
	n := 0
	for _, t := range toks {
		n += len(t.text)
	}
	return n
}
