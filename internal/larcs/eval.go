package larcs

import (
	"errors"
	"fmt"
)

// ErrDivideByZero is the sentinel wrapped by every zero-divisor
// evaluation failure, so callers can classify with errors.Is regardless
// of whether the offending operator was "/", "div", or "mod".
var ErrDivideByZero = errors.New("division or modulo by zero")

// EvalError is a typed expression-evaluation failure carrying the source
// position and operator of the failing node. Unwrap exposes the cause
// (e.g. ErrDivideByZero).
type EvalError struct {
	Line, Col int
	Op        string // the operator that failed, e.g. "mod"
	Err       error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("larcs:%d:%d: %q: %v", e.Line, e.Col, e.Op, e.Err)
}

func (e *EvalError) Unwrap() error { return e.Err }

// evalFn is a lowered expression: it reads identifier values from the
// frame slots the scope assigned them. Booleans are 0/1, as in the
// guard expressions.
type evalFn func(frame []int) (int, error)

// scope assigns frame slots to identifiers while a program is lowered.
// Bindings form a stack — params, imports and consts at the bottom, then
// the family parameter, quantifier, exec 'at' and phase-loop variables
// of the construct being lowered — and a slot is the binding's stack
// depth, so constructs lowered one after another reuse the same slots.
// A name resolves to its innermost binding.
type scope struct {
	names []string // names[s] is the identifier bound to slot s
	frame []int    // len(frame) >= len(names); grown by bind
	// deepest is the highest slot read by the expressions lowered since
	// the caller last reset it to -1.
	deepest int
}

// bind pushes a binding for name and returns its slot.
func (sc *scope) bind(name string) int {
	sc.names = append(sc.names, name)
	if len(sc.frame) < len(sc.names) {
		sc.frame = append(sc.frame, 0)
	}
	return len(sc.names) - 1
}

// unbind pops the n innermost bindings.
func (sc *scope) unbind(n int) { sc.names = sc.names[:len(sc.names)-n] }

// read returns the slot of name's innermost binding, or -1, and
// records the read in deepest.
func (sc *scope) read(name string) int {
	for s := len(sc.names) - 1; s >= 0; s-- {
		if sc.names[s] == name {
			sc.deepest = max(sc.deepest, s)
			return s
		}
	}
	return -1
}

// lower turns e into a closure over the current bindings. Lowering
// never fails: a name with no binding lowers to a closure reporting it,
// so a directly constructed Program fails only if the name is evaluated.
// Division and modulo by zero are reported as errors. "mod" is
// mathematical (result in [0, m) for m > 0), matching the paper's label
// arithmetic such as (i+1) mod n; "/" and "div" truncate toward zero
// like the host languages LaRCS imports variables from.
func (sc *scope) lower(e Expr) evalFn {
	switch v := e.(type) {
	case Num:
		n := v.V
		return func([]int) (int, error) { return n, nil }
	case Var:
		s := sc.read(v.Name)
		if s < 0 {
			return func([]int) (int, error) {
				return 0, errf(v.Line, v.Col, "unbound identifier %q at evaluation time", v.Name)
			}
		}
		return func(f []int) (int, error) { return f[s], nil }
	case Unary:
		x := sc.operand(v.X)
		if v.Op == "-" {
			return func(f []int) (int, error) {
				a, err := x.get(f)
				return -a, err
			}
		}
		// not
		return func(f []int) (int, error) {
			a, err := x.get(f)
			if err != nil {
				return 0, err
			}
			return b2i(a == 0), nil
		}
	case Binary:
		return sc.lowerBinary(v)
	}
	return func([]int) (int, error) { return 0, errf(0, 0, "unknown expression node %T", e) }
}

// operand is a lowered subexpression whose literal or slot read is done
// inline; anything else calls its closure.
type operand struct {
	fn   evalFn // nil for a literal or a bound identifier
	slot int    // the identifier's slot, or -1 for a literal
	k    int
}

func (o operand) get(f []int) (int, error) {
	if o.fn != nil {
		return o.fn(f)
	}
	if o.slot >= 0 {
		return f[o.slot], nil
	}
	return o.k, nil
}

func (sc *scope) operand(e Expr) operand {
	switch v := e.(type) {
	case Num:
		return operand{slot: -1, k: v.V}
	case Var:
		if s := sc.read(v.Name); s >= 0 {
			return operand{slot: s}
		}
	}
	return operand{fn: sc.lower(e)}
}

// lowerBinary evaluates the left operand, then the right unless "and"
// or "or" short-circuits, then applies the operator.
func (sc *scope) lowerBinary(v Binary) evalFn {
	l, r := sc.operand(v.L), sc.operand(v.R)
	switch v.Op {
	case "and", "or":
		short := v.Op == "or" // the left value that decides the result
		return func(f []int) (int, error) {
			a, err := l.get(f)
			if err != nil {
				return 0, err
			}
			if (a != 0) == short {
				return b2i(short), nil
			}
			b, err := r.get(f)
			if err != nil {
				return 0, err
			}
			return b2i(b != 0), nil
		}
	case "+":
		return func(f []int) (int, error) {
			a, b, err := both(l, r, f)
			return a + b, err
		}
	case "-":
		return func(f []int) (int, error) {
			a, b, err := both(l, r, f)
			return a - b, err
		}
	case "*":
		return func(f []int) (int, error) {
			a, b, err := both(l, r, f)
			return a * b, err
		}
	}
	op := binaryOp(v)
	return func(f []int) (int, error) {
		a, b, err := both(l, r, f)
		if err != nil {
			return 0, err
		}
		return op(a, b)
	}
}

// both evaluates l then r, stopping at the first error.
func both(l, r operand, f []int) (int, int, error) {
	a, err := l.get(f)
	if err != nil {
		return 0, 0, err
	}
	b, err := r.get(f)
	return a, b, err
}

// binaryOp returns the operator of v other than + - * and the
// short-circuit booleans, applied to evaluated operands.
func binaryOp(v Binary) func(a, b int) (int, error) {
	switch v.Op {
	case "/", "div", "mod":
		mod := v.Op == "mod"
		return func(a, b int) (int, error) {
			if b == 0 {
				return 0, &EvalError{Line: v.Line, Col: v.Col, Op: v.Op, Err: ErrDivideByZero}
			}
			if !mod {
				return a / b, nil
			}
			m := a % b
			if m != 0 && (m < 0) != (b < 0) {
				m += b
			}
			return m, nil
		}
	case "^":
		return func(a, b int) (int, error) { return power(v, a, b) }
	case "==":
		return func(a, b int) (int, error) { return b2i(a == b), nil }
	case "!=":
		return func(a, b int) (int, error) { return b2i(a != b), nil }
	case "<":
		return func(a, b int) (int, error) { return b2i(a < b), nil }
	case "<=":
		return func(a, b int) (int, error) { return b2i(a <= b), nil }
	case ">":
		return func(a, b int) (int, error) { return b2i(a > b), nil }
	case ">=":
		return func(a, b int) (int, error) { return b2i(a >= b), nil }
	}
	return func(int, int) (int, error) { return 0, errf(v.Line, v.Col, "unknown operator %q", v.Op) }
}

// power is a^b by repeated multiplication, failing once the running
// product leaves ±2^40. Bases 0, 1 and -1 never leave it, so their
// powers are computed in closed form instead of b multiplications.
func power(v Binary, a, b int) (int, error) {
	if b < 0 {
		return 0, errf(v.Line, v.Col, "negative exponent %d", b)
	}
	switch {
	case b == 0 || a == 1:
		return 1, nil
	case a == 0:
		return 0, nil
	case a == -1:
		return 1 - 2*(b%2), nil
	}
	pow := 1
	for i := 0; i < b; i++ {
		pow *= a
		if pow > 1<<40 || pow < -(1<<40) {
			return 0, errf(v.Line, v.Col, "exponentiation overflows")
		}
	}
	return pow, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
