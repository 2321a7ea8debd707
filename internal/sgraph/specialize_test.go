package sgraph

import (
	"reflect"
	"strings"
	"testing"
)

// profileFor builds a SpecializeProfile over all of c's tests with the
// given outcome-vector counts.
func profileFor(g *SGraph, counts map[string]int64) *SpecializeProfile {
	names := make([]string, len(g.C.Tests))
	for i, t := range g.C.Tests {
		names[i] = t.Name()
	}
	return &SpecializeProfile{TestNames: names, Outcomes: counts}
}

// hotVertices counts TEST vertices carrying a non-nil hot order.
func hotVertices(g *SGraph) int {
	n := 0
	for _, v := range g.Reachable() {
		if v.Kind == Test && v.Hot != nil {
			n++
		}
	}
	return n
}

// TestSpecializeHotPath drives the pass with a profile heavily biased
// toward one outcome vector and verifies: at least one vertex gets a
// hot order, the hot outcome lands on the fall-through arc, the graph
// stays well-formed and equivalent to the reference interpreter, and
// the layout (Reachable) actually changed.
func TestSpecializeHotPath(t *testing.T) {
	c := simple()
	g := buildGraph(t, c, OrderSiftAfterSupport)
	before := g.Reachable()

	// simple's tests are present_c and the predicate; bias hard toward
	// (present=1, pred=0) — the "count up" transition.
	counts := map[string]int64{}
	for _, k := range []string{"0,0", "0,1", "1,0", "1,1"} {
		counts[k] = 1
	}
	// Order-insensitive: find the present test's column.
	presCol := 0
	for i, name := range profileFor(g, nil).TestNames {
		if strings.HasPrefix(name, "present_") {
			presCol = i
		}
	}
	hotKey := []string{"0", "0"}
	hotKey[presCol] = "1"
	counts[strings.Join(hotKey, ",")] = 1000
	st, err := g.SpecializeChecked(profileFor(g, counts))
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 1003 {
		t.Fatalf("samples = %d, want 1003", st.Samples)
	}
	if st.Reordered == 0 || hotVertices(g) == 0 {
		t.Fatalf("expected at least one reordered vertex, stats %v", st)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, c, g, 11)
	// The hot outcome 1 of some reordered binary vertex must be the
	// fall-through arm.
	for _, v := range g.Reachable() {
		if v.Kind == Test && v.Hot != nil {
			if v.FallIdx() != v.Hot[0] {
				t.Fatalf("FallIdx %d disagrees with Hot[0] %d", v.FallIdx(), v.Hot[0])
			}
		}
	}
	after := g.Reachable()
	same := len(before) == len(after)
	if same {
		for i := range before {
			if before[i] != after[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("specialization reordered vertices but the layout did not change")
	}
}

// TestSpecializeIdentityNormalizes: a profile matching the default
// layout (outcome 0 hottest everywhere) must leave every Hot nil, so
// unspecialized and trivially-specialized graphs generate identical
// code.
func TestSpecializeIdentityNormalizes(t *testing.T) {
	g := buildGraph(t, simple(), OrderSiftAfterSupport)
	counts := map[string]int64{"0,0": 1000, "0,1": 10, "1,0": 5, "1,1": 1}
	// Outcome 0,0 dominating keeps outcome 0 first at the root test;
	// deeper vertices see monotonically decreasing weights in index
	// order too, so everything normalises to identity.
	st, err := g.SpecializeChecked(profileFor(g, counts))
	if err != nil {
		t.Fatal(err)
	}
	if hotVertices(g) != 0 {
		t.Fatalf("identity hot orders must normalise to nil, got %d hot vertices (stats %v)",
			hotVertices(g), st)
	}
}

// TestSpecializeMalformedProfile drives the shared profile decoder
// (Vectors) and replay walk (Replay) over malformed and partial
// profiles of simple (tests present_c, then the predicate; the present
// test is the root TEST and its absent arm goes straight to END), and
// checks what Specialize makes of each: a malformed key is an error
// that leaves no hot order behind, and a vector that stops at an
// uncovered test still credits the tests before it.
func TestSpecializeMalformedProfile(t *testing.T) {
	full := profileFor(buildGraph(t, simple(), OrderSiftAfterSupport), nil).TestNames
	pres, pred := full[0], full[1]
	for _, tc := range []struct {
		name     string
		names    []string
		counts   map[string]int64
		vecs     []ProfileVector // decoded, in key order
		covered  []bool          // Replay's verdict per decoded vector
		err      string          // substring of the decode and Specialize error
		samples  int64
		weighted int // TEST vertices credited by Specialize
	}{
		{name: "wrong arity", names: full, counts: map[string]int64{"1": 50, "0,0": 4},
			vecs: []ProfileVector{{[]int{0, 0}, 4}}, covered: []bool{true}, err: "has 1 entries"},
		{name: "non-numeric", names: full, counts: map[string]int64{"x,0": 3, "0,0": 4},
			vecs: []ProfileVector{{[]int{0, 0}, 4}}, covered: []bool{true}, err: "malformed outcome key"},
		{name: "out of range", names: full, counts: map[string]int64{"2,0": 3, "0,0": 4},
			vecs: []ProfileVector{{[]int{0, 0}, 4}}, covered: []bool{true}, err: "malformed outcome key"},
		{name: "non-positive count", names: full, counts: map[string]int64{"1,0": 0, "1,1": -2, "0,0": 4},
			vecs: []ProfileVector{{[]int{0, 0}, 4}}, covered: []bool{true}, samples: 4, weighted: 1},
		{name: "profile test the graph lacks", names: []string{"present_zzz", pres, pred},
			counts: map[string]int64{"1,1,0": 5, "0,0,0": 2},
			vecs:   []ProfileVector{{[]int{0, 0}, 2}, {[]int{1, 0}, 5}}, covered: []bool{true, true},
			samples: 7, weighted: 2},
		{name: "graph test the profile lacks", names: []string{pres}, counts: map[string]int64{"0": 3, "1": 8},
			vecs: []ProfileVector{{[]int{0, -1}, 3}, {[]int{1, -1}, 8}}, covered: []bool{true, false},
			samples: 11, weighted: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGraph(t, simple(), OrderSiftAfterSupport)
			p := &SpecializeProfile{TestNames: tc.names, Outcomes: tc.counts}
			vecs, covers, err := p.Vectors(g.C.Tests)
			if !covers {
				t.Fatal("profile covers no test")
			}
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("decode error %v, want %q", err, tc.err)
			}
			if !reflect.DeepEqual(vecs, tc.vecs) {
				t.Fatalf("vectors %v, want %v", vecs, tc.vecs)
			}
			root := g.Begin.Next
			for i, pv := range vecs {
				var path []*Vertex
				covered, err := g.Replay(pv.Outcome, func(v *Vertex, k int) { path = append(path, v) })
				if err != nil || covered != tc.covered[i] {
					t.Fatalf("replay %v: covered %v (err %v), want %v", pv.Outcome, covered, err, tc.covered[i])
				}
				// Every walk passes BEGIN and the root test; an uncovered
				// one stops at the predicate test, after them.
				if len(path) < 2 || path[0] != g.Begin || path[1] != root ||
					!covered && len(path) != 2 || covered && path[len(path)-1].Kind != End {
					t.Fatalf("replay %v visited %v", pv.Outcome, path)
				}
			}
			st, err := g.SpecializeChecked(p)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("specialize error %v, want %q", err, tc.err)
				}
				if hotVertices(g) != 0 {
					t.Fatal("failed specialization must leave no hot orders behind")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.Samples != tc.samples || st.Tests != tc.weighted {
				t.Fatalf("stats %+v, want %d samples over %d weighted tests", st, tc.samples, tc.weighted)
			}
		})
	}
	// The partial path's credit alone makes the root test's present arm
	// hottest (8 reactions against 3).
	g := buildGraph(t, simple(), OrderSiftAfterSupport)
	if _, err := g.Specialize(&SpecializeProfile{TestNames: []string{pres}, Outcomes: map[string]int64{"0": 3, "1": 8}}); err != nil {
		t.Fatal(err)
	}
	if hot := g.Begin.Next.Hot; !reflect.DeepEqual(hot, []int{1, 0}) {
		t.Fatalf("root hot order %v, want [1 0]", hot)
	}
}

// TestSpecializeUnknownTestsIgnored: a profile from a different module
// (no matching test names) is a no-op, not an error.
func TestSpecializeUnknownTestsIgnored(t *testing.T) {
	g := buildGraph(t, simple(), OrderSiftAfterSupport)
	p := &SpecializeProfile{TestNames: []string{"present_zzz"}, Outcomes: map[string]int64{"1": 7}}
	st, err := g.SpecializeChecked(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 0 || hotVertices(g) != 0 {
		t.Fatalf("foreign profile must be ignored, stats %v", st)
	}
}

// TestSpecializeSelector exercises a multi-way (selector) vertex: bias
// toward a non-zero state and verify the graph survives the gate with
// a reordered multi-way vertex.
func TestSpecializeSelector(t *testing.T) {
	c := counter()
	g := buildGraph(t, c, OrderSiftAfterSupport)
	names := make([]string, len(g.C.Tests))
	selCol := -1
	for i, tt := range g.C.Tests {
		names[i] = tt.Name()
		if strings.HasPrefix(tt.Name(), "sel_") {
			selCol = i
		}
	}
	if selCol < 0 {
		t.Fatal("counter has no selector test")
	}
	counts := map[string]int64{}
	// tick present, rst absent, state 3 dominates; a smattering of
	// everything else. Column order follows g.C.Tests.
	vec := func(pr, p, sel int) string {
		parts := make([]string, len(names))
		for i, n := range names {
			switch {
			case strings.HasPrefix(n, "present_rst"):
				parts[i] = itoa(pr)
			case strings.HasPrefix(n, "present_tick"):
				parts[i] = itoa(p)
			default:
				parts[i] = itoa(sel)
			}
		}
		return strings.Join(parts, ",")
	}
	counts[vec(0, 1, 3)] = 500
	for s := 0; s < 5; s++ {
		counts[vec(0, 1, s)] += 2
		counts[vec(1, 0, s)] = 1
	}
	st, err := g.SpecializeChecked(&SpecializeProfile{TestNames: names, Outcomes: counts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reordered == 0 {
		t.Fatalf("selector bias should reorder at least one vertex, stats %v", st)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, c, g, 23)
}

func itoa(v int) string {
	return string(rune('0' + v))
}

// TestCloneIsolation: mutating a clone's wiring and hot orders must
// not leak into the original, and the clone starts equivalent.
func TestCloneIsolation(t *testing.T) {
	g := buildGraph(t, counter(), OrderSiftAfterSupport)
	cl := g.Clone()
	if err := cl.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckEquivalent(cl); err != nil {
		t.Fatal(err)
	}
	for _, v := range cl.Vertices {
		if v.Kind == Test {
			hot := make([]int, v.Arity())
			for i := range hot {
				hot[i] = v.Arity() - 1 - i
			}
			v.Hot = hot
		}
	}
	for _, v := range g.Vertices {
		if v.Hot != nil {
			t.Fatal("clone mutation leaked into the original")
		}
	}
}

// TestCheckWellFormedRejectsBadHot: non-permutation hot orders are a
// structural error.
func TestCheckWellFormedRejectsBadHot(t *testing.T) {
	g := buildGraph(t, simple(), OrderSiftAfterSupport)
	var tv *Vertex
	for _, v := range g.Reachable() {
		if v.Kind == Test {
			tv = v
			break
		}
	}
	if tv == nil {
		t.Fatal("no TEST vertex")
	}
	tv.Hot = []int{0, 0}
	if err := g.CheckWellFormed(); err == nil {
		t.Fatal("duplicate hot entries must be rejected")
	}
	tv.Hot = []int{0}
	if err := g.CheckWellFormed(); err == nil {
		t.Fatal("short hot order must be rejected")
	}
	tv.Hot = []int{0, 2}
	if err := g.CheckWellFormed(); err == nil {
		t.Fatal("out-of-range hot entry must be rejected")
	}
	tv.Hot = nil
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}
