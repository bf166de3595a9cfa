package perm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if !p.IsIdentity() {
		t.Error("Identity is not identity")
	}
	if p.Order() != 1 {
		t.Errorf("identity order = %d", p.Order())
	}
}

func TestFromImageRejectsBad(t *testing.T) {
	if _, err := FromImage([]int{0, 0, 1}); err == nil {
		t.Error("accepted repeated value")
	}
	if _, err := FromImage([]int{0, 3, 1}); err == nil {
		t.Error("accepted out-of-range value")
	}
	if _, err := FromImage([]int{2, 0, 1}); err != nil {
		t.Errorf("rejected valid image: %v", err)
	}
}

// TestPaperCompositionConvention checks footnote 4 of the paper:
// (123) composed with (13)(2) gives (12)(3) under left-to-right
// composition.
func TestPaperCompositionConvention(t *testing.T) {
	a, err := ParseCycles("(123)", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseCycles("(13)(2)", 4)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Compose(b)
	want, _ := ParseCycles("(12)(3)", 4)
	if !c.Equal(want) {
		t.Errorf("(123)*(13)(2) = %v, want %v", c, want)
	}
}

func TestComposeInverse(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		p := Perm(r.Perm(8))
		if !p.Compose(p.Inverse()).IsIdentity() {
			t.Fatalf("p * p^-1 != id for %v", p)
		}
		if !p.Inverse().Compose(p).IsIdentity() {
			t.Fatalf("p^-1 * p != id for %v", p)
		}
	}
}

func TestCyclesRoundTrip(t *testing.T) {
	p, err := ParseCycles("(0246)(1357)", 8)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 2 || p[2] != 4 || p[4] != 6 || p[6] != 0 {
		t.Errorf("cycle parse wrong: %v", []int(p))
	}
	cycles := p.Cycles()
	if len(cycles) != 2 || len(cycles[0]) != 4 {
		t.Errorf("cycles = %v", cycles)
	}
	if p.String() != "(0246)(1357)" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestParseMultiDigit(t *testing.T) {
	p, err := ParseCycles("(0 11)(1 12)", 16)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 11 || p[11] != 0 || p[1] != 12 {
		t.Errorf("multi-digit parse wrong: %v", []int(p))
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"(01", "0 1)", "(0 1)(1 2)", "(0 9)", "(0 x)"} {
		if _, err := ParseCycles(s, 4); err == nil {
			t.Errorf("ParseCycles(%q) accepted", s)
		}
	}
}

func TestPaperGroupElements(t *testing.T) {
	// The 8-node perfect broadcast example: comm1, comm2, comm3 and the
	// derived elements E3 = comm1*comm2 etc. as listed in the paper.
	comm1, _ := ParseCycles("(01234567)", 8)
	comm2, _ := ParseCycles("(0246)(1357)", 8)
	comm3, _ := ParseCycles("(04)(15)(26)(37)", 8)
	// E3 = (03614725): i -> i+3 mod 8.
	e3 := comm1.Compose(comm2)
	for i := 0; i < 8; i++ {
		if e3[i] != (i+3)%8 {
			t.Fatalf("comm1*comm2 at %d = %d, want %d", i, e3[i], (i+3)%8)
		}
	}
	if comm3.Order() != 2 || comm2.Order() != 4 || comm1.Order() != 8 {
		t.Errorf("orders = %d %d %d, want 8 4 2", comm1.Order(), comm2.Order(), comm3.Order())
	}
	for _, p := range []Perm{comm1, comm2, comm3} {
		if !p.HasUniformCycles() {
			t.Errorf("%v should have uniform cycles", p)
		}
	}
}

func TestHasUniformCycles(t *testing.T) {
	p, _ := ParseCycles("(01)(23)", 4)
	if !p.HasUniformCycles() {
		t.Error("(01)(23) uniform")
	}
	q, _ := ParseCycles("(012)", 4) // 3-cycle + fixed point
	if q.HasUniformCycles() {
		t.Error("(012) on 4 points should not be uniform")
	}
	if !Identity(5).HasUniformCycles() {
		t.Error("identity should be uniform")
	}
}

func TestPowerAndOrder(t *testing.T) {
	p, _ := ParseCycles("(01234567)", 8)
	if !p.Power(8).IsIdentity() {
		t.Error("p^8 != id for 8-cycle")
	}
	if p.Power(0).IsIdentity() != true {
		t.Error("p^0 != id")
	}
	q := p.Power(2)
	want, _ := ParseCycles("(0246)(1357)", 8)
	if !q.Equal(want) {
		t.Errorf("p^2 = %v, want %v", q, want)
	}
	if got := p.Power(3).Order(); got != 8 {
		t.Errorf("order(p^3) = %d, want 8", got)
	}
}

func TestCycleLengths(t *testing.T) {
	p, _ := ParseCycles("(01)(234)", 6)
	got := p.CycleLengths()
	want := []int{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("lengths = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lengths = %v, want %v", got, want)
		}
	}
}

// Property: composition is associative and order divides group exponent.
func TestComposeAssociativityProperty(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		r1 := rand.New(rand.NewSource(s1))
		r2 := rand.New(rand.NewSource(s2))
		r3 := rand.New(rand.NewSource(s3))
		a := Perm(r1.Perm(7))
		b := Perm(r2.Perm(7))
		c := Perm(r3.Perm(7))
		return a.Compose(b).Compose(c).Equal(a.Compose(b.Compose(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: p^Order(p) is the identity.
func TestOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := Perm(rand.New(rand.NewSource(seed)).Perm(9))
		return p.Power(p.Order()).IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIdentityString(t *testing.T) {
	got := Identity(3).String()
	if got != "(0)(1)(2)" {
		t.Errorf("identity String = %q", got)
	}
}
