package bdd

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// evalAll exhaustively evaluates f over all assignments of nvars
// variables and returns the truth table as a bit-per-assignment slice.
func evalAll(m *Manager, f Node, vars []Var) []bool {
	n := len(vars)
	out := make([]bool, 1<<n)
	for a := 0; a < 1<<n; a++ {
		out[a] = m.Eval(f, func(v Var) bool {
			for i, w := range vars {
				if w == v {
					return a&(1<<i) != 0
				}
			}
			return false
		})
	}
	return out
}

func newVars(m *Manager, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = m.NewVar(string(rune('a' + i)))
	}
	return vs
}

func TestTerminals(t *testing.T) {
	m := New()
	if !False.IsConst() || !True.IsConst() {
		t.Fatal("terminals must be const")
	}
	if m.Eval(True, nil) != true || m.Eval(False, nil) != false {
		t.Fatal("terminal eval wrong")
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("Not on terminals wrong")
	}
}

func TestVarNode(t *testing.T) {
	m := New()
	v := m.NewVar("x")
	x := m.VarNode(v)
	if m.Eval(x, func(Var) bool { return true }) != true {
		t.Error("x under x=1 should be true")
	}
	if m.Eval(x, func(Var) bool { return false }) != false {
		t.Error("x under x=0 should be false")
	}
	if m.VarNode(v) != x {
		t.Error("VarNode must be canonical")
	}
}

func TestBasicConnectives(t *testing.T) {
	m := New()
	vs := newVars(m, 2)
	a, b := m.VarNode(vs[0]), m.VarNode(vs[1])
	cases := []struct {
		name string
		f    Node
		tt   [4]bool // assignments 00,10,01,11 (bit0=a, bit1=b)
	}{
		{"and", m.And(a, b), [4]bool{false, false, false, true}},
		{"or", m.Or(a, b), [4]bool{false, true, true, true}},
		{"xor", m.Xor(a, b), [4]bool{false, true, true, false}},
		{"xnor", m.Xnor(a, b), [4]bool{true, false, false, true}},
		{"implies", m.Implies(a, b), [4]bool{true, false, true, true}},
	}
	for _, c := range cases {
		got := evalAll(m, c.f, vs)
		for i := range got {
			if got[i] != c.tt[i] {
				t.Errorf("%s: assignment %02b: got %v want %v", c.name, i, got[i], c.tt[i])
			}
		}
	}
}

func TestIteCanonicity(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	a, b, c := m.VarNode(vs[0]), m.VarNode(vs[1]), m.VarNode(vs[2])
	// (a AND b) OR c built two different ways must be one node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Ite(a, m.Or(b, c), c)
	if f1 != f2 {
		t.Errorf("canonicity violated: %s vs %s", m.String(f1), m.String(f2))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorgan(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	f := func(i, j int) Node { return m.And(m.VarNode(vs[i]), m.VarNode(vs[j])) }
	lhs := m.Not(m.Or(f(0, 1), f(2, 3)))
	rhs := m.And(m.Not(f(0, 1)), m.Not(f(2, 3)))
	if lhs != rhs {
		t.Error("De Morgan equality must hold node-identically")
	}
}

func TestCofactor(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	a, b, c := m.VarNode(vs[0]), m.VarNode(vs[1]), m.VarNode(vs[2])
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	if got := m.Cofactor(f, vs[0], true); got != b {
		t.Errorf("f|a=1 should be b, got %s", m.String(got))
	}
	if got := m.Cofactor(f, vs[0], false); got != c {
		t.Errorf("f|a=0 should be c, got %s", m.String(got))
	}
	// Cofactor by a variable not in the support is the identity.
	g := m.And(b, c)
	if m.Cofactor(g, vs[0], true) != g {
		t.Error("cofactor by non-support var must be identity")
	}
}

func TestRestrictAndShannon(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	f := randomFunc(m, vs, rand.New(rand.NewSource(7)))
	for _, v := range vs {
		f0 := m.Cofactor(f, v, false)
		f1 := m.Cofactor(f, v, true)
		back := m.Ite(m.VarNode(v), f1, f0)
		if back != f {
			t.Fatalf("Shannon expansion must reconstruct f for var %v", v)
		}
	}
}

func TestExists(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	a, b, c := m.VarNode(vs[0]), m.VarNode(vs[1]), m.VarNode(vs[2])
	f := m.And(a, m.Or(b, c))
	// Exists a. f = (b OR c)
	if got := m.Exists(f, vs[0]); got != m.Or(b, c) {
		t.Errorf("exists a: got %s", m.String(got))
	}
	// Exists b,c . f = a
	if got := m.Exists(f, vs[1], vs[2]); got != a {
		t.Errorf("exists b,c: got %s", m.String(got))
	}
}

func TestSupport(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	f := m.Or(m.And(m.VarNode(vs[0]), m.VarNode(vs[2])), m.VarNode(vs[2]))
	// f reduces to vs[2] only.
	sup := m.Support(f)
	if len(sup) != 1 || sup[0] != vs[2] {
		t.Errorf("support: got %v", sup)
	}
}

func TestCube(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	cube := m.Cube([]Var{vs[2], vs[0]}, []bool{true, false})
	want := m.And(m.Not(m.VarNode(vs[0])), m.VarNode(vs[2]))
	if cube != want {
		t.Errorf("cube: got %s want %s", m.String(cube), m.String(want))
	}
}

func TestGC(t *testing.T) {
	m := New()
	vs := newVars(m, 6)
	f := randomFunc(m, vs, rand.New(rand.NewSource(3)))
	m.Protect(f)
	// Build garbage.
	for i := 0; i < 50; i++ {
		randomFunc(m, vs, rand.New(rand.NewSource(int64(i))))
	}
	before := evalAll(m, f, vs)
	m.GC()
	after := evalAll(m, f, vs)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("GC changed a protected function")
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Freed slots must be reusable.
	g := randomFunc(m, vs, rand.New(rand.NewSource(99)))
	_ = g
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// randomFunc builds a random function over vars using a mix of
// connectives.
func randomFunc(m *Manager, vars []Var, r *rand.Rand) Node {
	terms := make([]Node, 0, 4)
	for i := 0; i < 3+r.Intn(4); i++ {
		cube := True
		for _, v := range vars {
			switch r.Intn(3) {
			case 0:
				cube = m.And(cube, m.VarNode(v))
			case 1:
				cube = m.And(cube, m.Not(m.VarNode(v)))
			}
		}
		terms = append(terms, cube)
	}
	return m.Or(terms...)
}

func TestSwapPreservesFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		m := New()
		vs := newVars(m, 5)
		f := randomFunc(m, vs, r)
		g := randomFunc(m, vs, r)
		m.Protect(f)
		m.Protect(g)
		fTT := evalAll(m, f, vs)
		gTT := evalAll(m, g, vs)
		for i := 0; i < 20; i++ {
			m.swapLevels(r.Intn(len(vs) - 1))
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d swap %d: %v", trial, i, err)
			}
		}
		fTT2 := evalAll(m, f, vs)
		gTT2 := evalAll(m, g, vs)
		for i := range fTT {
			if fTT[i] != fTT2[i] || gTT[i] != gTT2[i] {
				t.Fatalf("trial %d: swap changed function at minterm %d", trial, i)
			}
		}
	}
}

func TestSiftPreservesFunctionAndHelps(t *testing.T) {
	// The classic order-sensitive function: x1 x2 + x3 x4 + x5 x6 has
	// linear size in the good order and exponential in the
	// interleaved bad order x1 x3 x5 x2 x4 x6.
	m := New()
	vs := newVars(m, 6)
	// Create in bad order by construction: vars were created in
	// order a..f at levels 0..5; build pairs (a,d),(b,e),(c,f).
	f := m.Or(
		m.And(m.VarNode(vs[0]), m.VarNode(vs[3])),
		m.And(m.VarNode(vs[1]), m.VarNode(vs[4])),
		m.And(m.VarNode(vs[2]), m.VarNode(vs[5])),
	)
	m.Protect(f)
	before := m.Size(f)
	tt := evalAll(m, f, vs)
	m.Sift(SiftOptions{})
	after := m.Size(f)
	if after >= before {
		t.Errorf("sifting did not reduce the size: before=%d after=%d", before, after)
	}
	// Optimal size for this function is 8 nodes (pairs adjacent).
	if after > 8 {
		t.Errorf("sifting result %d nodes, expected <= 8", after)
	}
	tt2 := evalAll(m, f, vs)
	for i := range tt {
		if tt[i] != tt2[i] {
			t.Fatalf("sifting changed the function at minterm %d", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSiftWithPrecedence(t *testing.T) {
	m := New()
	vs := newVars(m, 6)
	f := m.Or(
		m.And(m.VarNode(vs[0]), m.VarNode(vs[3])),
		m.And(m.VarNode(vs[1]), m.VarNode(vs[4])),
		m.And(m.VarNode(vs[2]), m.VarNode(vs[5])),
	)
	m.Protect(f)
	// Constrain: group of vs[5] must stay below everything else
	// (like an output after its support).
	last := m.GroupOf(vs[5])
	m.Sift(SiftOptions{Precede: func(a, b int32) bool {
		return b == last && a != last
	}})
	if m.Level(vs[5]) != 5 {
		t.Errorf("vs[5] must remain at the bottom, is at level %d", m.Level(vs[5]))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedSiftKeepsBlockContiguous(t *testing.T) {
	m := New()
	vs := newVars(m, 8)
	if err := m.Group(vs[2], vs[3]); err != nil {
		t.Fatal(err)
	}
	if err := m.Group(vs[5], vs[6]); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	f := randomFunc(m, vs, r)
	m.Protect(f)
	tt := evalAll(m, f, vs)
	m.Sift(SiftOptions{})
	tt2 := evalAll(m, f, vs)
	for i := range tt {
		if tt[i] != tt2[i] {
			t.Fatal("grouped sifting changed the function")
		}
	}
	// Blocks must be contiguous.
	if d := m.Level(vs[2]) - m.Level(vs[3]); d != -1 {
		t.Errorf("group {2,3} split: levels %d %d", m.Level(vs[2]), m.Level(vs[3]))
	}
	if d := m.Level(vs[5]) - m.Level(vs[6]); d != -1 {
		t.Errorf("group {5,6} split: levels %d %d", m.Level(vs[5]), m.Level(vs[6]))
	}
}

func TestGroupRequiresContiguous(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	if err := m.Group(vs[0], vs[2]); err == nil {
		t.Error("grouping non-adjacent variables must fail")
	}
}

// Property: ITE agrees with its truth-table definition on random
// 4-variable functions encoded as 16-bit truth tables.
func TestQuickIteMatchesTruthTable(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	fromTT := func(tt uint16) Node {
		f := False
		for a := 0; a < 16; a++ {
			if tt&(1<<a) != 0 {
				vals := make([]bool, 4)
				for i := range vals {
					vals[i] = a&(1<<i) != 0
				}
				f = m.Or(f, m.Cube(vs, vals))
			}
		}
		return f
	}
	prop := func(ft, gt, ht uint16) bool {
		f, g, h := fromTT(ft), fromTT(gt), fromTT(ht)
		r := m.Ite(f, g, h)
		want := (ft & gt) | (^ft & ht)
		got := uint16(0)
		for a := 0; a < 16; a++ {
			if m.Eval(r, func(v Var) bool {
				for i, w := range vs {
					if w == v {
						return a&(1<<i) != 0
					}
				}
				return false
			}) {
				got |= 1 << a
			}
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: building the same truth table twice yields the same node
// (strong canonicity).
func TestQuickCanonicity(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	build := func(tt uint16, order []int) Node {
		f := False
		for _, a := range order {
			if tt&(1<<a) != 0 {
				vals := make([]bool, 4)
				for i := range vals {
					vals[i] = a&(1<<i) != 0
				}
				f = m.Or(f, m.Cube(vs, vals))
			}
		}
		return f
	}
	fwd := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	rev := []int{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	prop := func(tt uint16) bool {
		return build(tt, fwd) == build(tt, rev)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSizeCounting(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	a, b, c := m.VarNode(vs[0]), m.VarNode(vs[1]), m.VarNode(vs[2])
	f := m.And(a, m.And(b, c)) // chain of 3 nodes
	if got := m.Size(f); got != 3 {
		t.Errorf("Size(a&b&c) = %d, want 3", got)
	}
	if got := m.Size(f, f); got != 3 {
		t.Errorf("shared roots double-counted: %d", got)
	}
	if got := m.Size(True); got != 0 {
		t.Errorf("Size(True) = %d, want 0", got)
	}
}

func TestProtectUnprotect(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	f := randomFunc(m, vs, rand.New(rand.NewSource(5)))
	m.Protect(f)
	m.Protect(f)
	m.Unprotect(f)
	m.GC()
	// Still protected once: must survive.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.nodes[f>>1].dead && !f.IsConst() {
		t.Fatal("node collected while still protected")
	}
	m.Unprotect(f)
	m.GC()
	if !f.IsConst() && !m.nodes[f>>1].dead {
		t.Fatal("unprotected node not collected")
	}
}

func BenchmarkIteDeep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := New()
		vs := newVars(m, 16)
		f := False
		for j := 0; j+1 < len(vs); j += 2 {
			f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+1])))
		}
	}
}

// BenchmarkSift builds and sifts a badly interleaved function; ns/op
// covers both, ns/swap times the Sift calls alone over the adjacent
// swaps they performed.
func BenchmarkSift(b *testing.B) {
	var sift time.Duration
	swaps := 0
	for i := 0; i < b.N; i++ {
		m := New()
		vs := newVars(m, 12)
		f := False
		// Bad interleaving of 6 pairs.
		for j := 0; j < 6; j++ {
			f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+6])))
		}
		m.Protect(f)
		t := time.Now()
		m.Sift(SiftOptions{})
		sift += time.Since(t)
		swaps += m.Swaps
		m.Release()
	}
	b.ReportMetric(float64(sift.Nanoseconds())/float64(swaps), "ns/swap")
}

func TestDot(t *testing.T) {
	m := New()
	vs := newVars(m, 3)
	f := m.Or(m.And(m.VarNode(vs[0]), m.VarNode(vs[1])), m.VarNode(vs[2]))
	dot := m.Dot(f)
	for _, needle := range []string{"digraph bdd", "style=dashed", "shape=box", "root0"} {
		if !strings.Contains(dot, needle) {
			t.Errorf("dot missing %q", needle)
		}
	}
}

// TestDotComplementArcs checks the negated-edge rendering: XOR has a
// complemented internal else arc, and its complement handle gives a
// complemented root edge — both must carry the odot arrow tail, and
// then arcs never do (canonical form keeps them regular).
func TestDotComplementArcs(t *testing.T) {
	m := New()
	vs := newVars(m, 2)
	x := m.Xor(m.VarNode(vs[0]), m.VarNode(vs[1]))
	dot := m.Dot(x, m.Not(x))
	if !strings.Contains(dot, "style=dashed, dir=both, arrowtail=odot") {
		t.Errorf("complemented else arc not rendered with odot tail:\n%s", dot)
	}
	if !strings.Contains(dot, "root1 -> ") || !strings.Contains(dot, "[dir=both, arrowtail=odot]") {
		t.Errorf("complemented root handle not rendered with odot tail:\n%s", dot)
	}
	for _, line := range strings.Split(dot, "\n") {
		if strings.Contains(line, "odot") && !strings.Contains(line, "dashed") &&
			!strings.Contains(line, "root") {
			t.Errorf("then arc rendered complemented: %s", line)
		}
	}
	// Both polarities share every physical node: the two roots must
	// point at the same node id.
	if m.SharedSize(x, m.Not(x)) != m.SharedSize(x) {
		t.Errorf("complement pair does not share nodes")
	}
}

// TestCheckInvariantsDetectsComplementedHi corrupts a live node's hi
// arc with a complement bit — the exact violation of the canonical
// form a bug in mk or swapLevels would produce — and requires
// CheckInvariants to detect it, then restores the node and requires a
// clean report.
func TestCheckInvariantsDetectsComplementedHi(t *testing.T) {
	m := New()
	vs := newVars(m, 4)
	f := randomFunc(m, vs, rand.New(rand.NewSource(77)))
	m.Protect(f)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean manager reported dirty: %v", err)
	}
	// Find a live node whose hi arc is an internal node (so the
	// complement bit actually flips a followable arc).
	corrupt := -1
	for i := 1; i < len(m.nodes); i++ {
		if nd := &m.nodes[i]; !nd.dead && nd.hi > 1 {
			corrupt = i
			break
		}
	}
	if corrupt < 0 {
		t.Skip("no internal hi arc in this diagram")
	}
	m.nodes[corrupt].hi ^= 1
	err := m.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants missed a complemented hi arc")
	}
	if !strings.Contains(err.Error(), "complemented hi arc") {
		t.Fatalf("wrong diagnosis for complemented hi arc: %v", err)
	}
	m.nodes[corrupt].hi ^= 1
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("restored manager still dirty: %v", err)
	}
}

// TestNotAllocatesNoNodes pins the headline complement-edge property:
// Not is a handle bit flip. It must create no nodes, must round-trip
// exactly, and — outside the bdddebug build, whose owner check itself
// allocates — must not allocate at all.
func TestNotAllocatesNoNodes(t *testing.T) {
	m := New()
	vs := newVars(m, 8)
	f := randomFunc(m, vs, rand.New(rand.NewSource(11)))
	m.Protect(f)
	before := m.NumNodes()
	g := m.Not(f)
	if m.NumNodes() != before {
		t.Fatalf("Not created nodes: %d -> %d", before, m.NumNodes())
	}
	if g == f {
		t.Fatal("Not returned its argument")
	}
	if m.Not(g) != f {
		t.Fatal("double complement did not restore the handle")
	}
	if got := m.Size(g); got != m.Size(f) {
		t.Fatalf("complement classical size %d != original %d", got, m.Size(f))
	}
	if ownerChecks {
		return // goid() in the debug owner check allocates
	}
	if avg := testing.AllocsPerRun(100, func() { g = m.Not(g) }); avg != 0 {
		t.Fatalf("Not allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkNot measures the complemented-handle flip; allocs/op must
// report 0 (asserted by TestNotAllocatesNoNodes, visible in -benchmem).
func BenchmarkNot(b *testing.B) {
	m := New()
	vs := newVars(m, 12)
	f := randomFunc(m, vs, rand.New(rand.NewSource(3)))
	m.Protect(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = m.Not(f)
	}
	if f == False && b.N == 0 {
		b.Fatal("unreachable; keeps f live")
	}
}
