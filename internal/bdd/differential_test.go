package bdd

// Differential gate for the kernel: randomized operation scripts and
// machine-style characteristic-function builds drive the kernel while
// every tracked function also carries its truth table, computed
// independently on bitsets. Each result must agree with its table on
// Eval over every assignment, on the classical node count Size
// reports (recounted from the table under the manager's current
// order), and on its String rendering. Final sift orders have no
// independent oracle, so they are pinned per trial in
// testdata/differential_golden.json. Regenerate deliberately with
// `go test ./internal/bdd -run 'Differential|Sift' -update`.

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/differential_golden.json")

// table is a truth-table bitset over a manager's variables: bit a is
// the function's value under the assignment giving Var v the value of
// bit v of a. The scripts below use at most 10 variables, so a table
// is at most 1,024 bits.
type table []uint64

func (t table) get(a int) bool { return t[a>>6]&(1<<(a&63)) != 0 }

// fn pairs a kernel handle with the truth table it must denote.
type fn struct {
	n Node
	t table
}

// oracle drives one manager over nvars variables and recomputes every
// operation on truth tables.
type oracle struct {
	m       *Manager
	nvars   int // variable i is Var(i)
	tracked []fn
}

func newOracle(nvars int) *oracle {
	o := &oracle{m: New(), nvars: nvars}
	o.push(o.pair(False, func(int) bool { return false }))
	o.push(o.pair(True, func(int) bool { return true }))
	for i := 0; i < nvars; i++ {
		v := o.m.NewVar(string(rune('a' + i)))
		o.push(o.pair(o.m.VarNode(v), func(a int) bool { return a&(1<<i) != 0 }))
	}
	return o
}

// push tracks f, protecting its handle so collections and sifting
// never invalidate it.
func (o *oracle) push(f fn) {
	o.m.Protect(f.n)
	o.tracked = append(o.tracked, f)
}

// pair pairs n with the table holding value(a) at every assignment a.
func (o *oracle) pair(n Node, value func(a int) bool) fn {
	t := make(table, (1<<o.nvars+63)/64)
	for a := 0; a < 1<<o.nvars; a++ {
		if value(a) {
			t[a>>6] |= 1 << (a & 63)
		}
	}
	return fn{n, t}
}

func (o *oracle) not(f fn) fn {
	return o.pair(o.m.Not(f.n), func(a int) bool { return !f.t.get(a) })
}

func (o *oracle) and(f, g fn) fn {
	return o.pair(o.m.And(f.n, g.n), func(a int) bool { return f.t.get(a) && g.t.get(a) })
}

func (o *oracle) or(f, g fn) fn {
	return o.pair(o.m.Or(f.n, g.n), func(a int) bool { return f.t.get(a) || g.t.get(a) })
}

func (o *oracle) xor(f, g fn) fn {
	return o.pair(o.m.Xor(f.n, g.n), func(a int) bool { return f.t.get(a) != g.t.get(a) })
}

func (o *oracle) xnor(f, g fn) fn {
	return o.pair(o.m.Xnor(f.n, g.n), func(a int) bool { return f.t.get(a) == g.t.get(a) })
}

func (o *oracle) ite(f, g, h fn) fn {
	return o.pair(o.m.Ite(f.n, g.n, h.n), func(a int) bool {
		if f.t.get(a) {
			return g.t.get(a)
		}
		return h.t.get(a)
	})
}

// levelTable rearranges t by the manager's current order: bit n-1-l of
// an index is the value of the variable at level l, so the
// subfunctions reachable below level l are exactly the contiguous
// blocks of 2^(n-l) entries, and a block's lower and upper halves are
// its else and then cofactors.
func (o *oracle) levelTable(t table) []byte {
	order := o.m.Order()
	out := make([]byte, 1<<o.nvars)
	for a := range out {
		j := 0
		for l, v := range order {
			if a&(1<<int(v)) != 0 {
				j |= 1 << (o.nvars - 1 - l)
			}
		}
		if t.get(a) {
			out[j] = 1
		}
	}
	return out
}

// classicalSize counts the nodes of the complement-free ROBDD of t:
// at each level, the distinct reachable subfunctions that essentially
// depend on that level's variable.
func (o *oracle) classicalSize(t table) int {
	lt := o.levelTable(t)
	size := 0
	for l := 0; l < o.nvars; l++ {
		w := len(lt) >> l
		seen := make(map[string]bool)
		for s := 0; s < len(lt); s += w {
			blk := lt[s : s+w]
			if string(blk[:w/2]) != string(blk[w/2:]) {
				seen[string(blk)] = true
			}
		}
		size += len(seen)
	}
	return size
}

// render produces the nested ite(var,then,else) text String emits.
func (o *oracle) render(t table) string {
	lt := o.levelTable(t)
	order := o.m.Order()
	var b strings.Builder
	var rec func(blk []byte, l int)
	rec = func(blk []byte, l int) {
		for len(blk) > 1 && string(blk[:len(blk)/2]) == string(blk[len(blk)/2:]) {
			blk, l = blk[:len(blk)/2], l+1
		}
		if len(blk) == 1 {
			b.WriteByte('0' + blk[0])
			return
		}
		b.WriteString("ite(" + o.m.VarName(order[l]) + ",")
		rec(blk[len(blk)/2:], l+1)
		b.WriteString(",")
		rec(blk[:len(blk)/2], l+1)
		b.WriteString(")")
	}
	rec(lt, 0)
	return b.String()
}

// check compares f with its truth table on every assignment, on the
// classical size and on the rendering.
func (o *oracle) check(t *testing.T, f fn, where string) {
	t.Helper()
	for a := 0; a < 1<<o.nvars; a++ {
		got := o.m.Eval(f.n, func(v Var) bool { return a&(1<<int(v)) != 0 })
		if want := f.t.get(a); got != want {
			t.Fatalf("%s: Eval at assignment %b = %v, truth table %v", where, a, got, want)
		}
	}
	if got, want := o.m.Size(f.n), o.classicalSize(f.t); got != want {
		t.Fatalf("%s: classical Size %d, recount from the truth table %d", where, got, want)
	}
	if got, want := o.m.String(f.n), o.render(f.t); got != want {
		t.Fatalf("%s: rendering\n got      %s\n expected %s", where, got, want)
	}
}

// orderRecord pins the final variable order of one trial.
type orderRecord struct {
	Seed  int64  `json:"seed"`
	Order string `json:"order"` // variable names, top to bottom
}

func orderString(m *Manager) string {
	var names []string
	for _, v := range m.Order() {
		names = append(names, m.VarName(v))
	}
	return strings.Join(names, " ")
}

// checkOrders compares the per-trial final orders a gate produced with
// the recorded ones (a -short run checks a prefix of the trials), or
// records them under -update.
func checkOrders(t *testing.T, gate string, got []orderRecord) {
	t.Helper()
	path := filepath.Join("testdata", "differential_golden.json")
	golden := map[string][]orderRecord{}
	blob, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(blob, &golden)
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update records every trial; run without -short")
		}
		golden[gate] = got
		blob, err := json.MarshalIndent(golden, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(blob, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	want := golden[gate]
	if len(got) > len(want) || (!testing.Short() && len(got) != len(want)) {
		t.Fatalf("%s: golden has %d orders, run produced %d (run with -update)", gate, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s seed %d: final order %q, recorded %q (seed %d)",
				gate, got[i].Seed, got[i].Order, want[i].Order, want[i].Seed)
		}
	}
}

// TestDifferentialVsReference runs randomized operation scripts —
// every public connective, quantification, cofactoring, GC and sifting
// — against truth-table oracles. A -short run plays shorter scripts,
// whose final orders are recorded separately.
func TestDifferentialVsReference(t *testing.T) {
	if *updateGolden || !testing.Short() {
		checkOrders(t, "ops", opsScripts(t, 40, 70))
	}
	if *updateGolden || testing.Short() {
		checkOrders(t, "ops-short", opsScripts(t, 8, 40))
	}
}

// opsScripts plays one script per trial and returns the final orders.
func opsScripts(t *testing.T, trials, steps int) []orderRecord {
	var orders []orderRecord
	for trial := 0; trial < trials; trial++ {
		seed := int64(9200 + trial)
		r := rand.New(rand.NewSource(seed))
		o := newOracle(6 + r.Intn(4))
		pick := func() fn { return o.tracked[r.Intn(len(o.tracked))] }
		for step := 0; step < steps; step++ {
			f, g, h := pick(), pick(), pick()
			var res fn
			switch op := r.Intn(10); op {
			case 0:
				res = o.not(f)
			case 1:
				res = o.and(f, g)
			case 2:
				res = o.or(f, g)
			case 3:
				res = o.xor(f, g)
			case 4:
				res = o.xnor(f, g)
			case 5:
				res = o.ite(f, g, h)
				// Standard triples give the four complement variants of
				// a call one cache entry; the variants replay it.
				for _, v := range []fn{
					o.ite(o.not(f), h, g),
					o.ite(f, o.not(g), o.not(h)),
					o.ite(o.not(f), o.not(h), o.not(g)),
				} {
					o.check(t, v, "ite complement variant")
				}
			case 6:
				res = o.pair(o.m.Implies(f.n, g.n), func(a int) bool { return !f.t.get(a) || g.t.get(a) })
			case 7:
				v := r.Intn(o.nvars)
				val := r.Intn(2) == 1
				res = o.pair(o.m.Cofactor(f.n, Var(v), val), func(a int) bool {
					if val {
						return f.t.get(a | 1<<v)
					}
					return f.t.get(a &^ (1 << v))
				})
			case 8:
				vs := make([]Var, 1+r.Intn(3))
				mask := 0
				for q := range vs {
					w := r.Intn(o.nvars)
					vs[q], mask = Var(w), mask|1<<w
				}
				// Some assignment to the quantified variables holds:
				// enumerate the submasks of mask.
				res = o.pair(o.m.Exists(f.n, vs...), func(a int) bool {
					for sub := mask; ; sub = (sub - 1) & mask {
						if f.t.get(a&^mask | sub) {
							return true
						}
						if sub == 0 {
							return false
						}
					}
				})
			default:
				want := false
				for a := 0; a < 1<<o.nvars; a++ {
					want = want || f.t.get(a) && g.t.get(a)
				}
				if got := o.m.Intersects(f.n, g.n); got != want {
					t.Fatalf("seed %d step %d: Intersects %v, truth tables %v", seed, step, got, want)
				}
				continue
			}
			o.push(res)
			o.check(t, res, "op result")
			if step%17 == 11 {
				o.m.GC()
			}
		}
		if err := o.m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: invariants: %v", seed, err)
		}
		// Every tracked function must survive sifting unchanged, and
		// its size and rendering follow the new order.
		o.m.Sift(SiftOptions{Passes: 1 + r.Intn(2)})
		orders = append(orders, orderRecord{seed, orderString(o.m)})
		for _, f := range o.tracked {
			o.check(t, f, "post-sift")
		}
		if err := o.m.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: post-sift invariants: %v", seed, err)
		}
	}
	return orders
}

// TestDifferentialCharFn builds machine-style characteristic functions
// — chi = AND_i xnor(o_i, f_i(state, inputs)), the shape the synthesis
// flow feeds the kernel — then sifts with chi as the cost root,
// mirroring how POLIS optimises the characteristic function alone.
func TestDifferentialCharFn(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	var orders []orderRecord
	for trial := 0; trial < trials; trial++ {
		seed := int64(4400 + trial)
		r := rand.New(rand.NewSource(seed))
		nin := 4 + r.Intn(3)  // state+input bits
		nout := 2 + r.Intn(3) // output bits
		o := newOracle(nin + nout)
		lit := func(i int) fn { return o.tracked[2+i] } // after False, True
		chi := o.tracked[1]
		for out := 0; out < nout; out++ {
			// Random function over the input literals.
			f := lit(r.Intn(nin))
			for d := 0; d < 3+r.Intn(4); d++ {
				g := lit(r.Intn(nin))
				switch r.Intn(3) {
				case 0:
					f = o.and(f, g)
				case 1:
					f = o.or(f, g)
				default:
					f = o.xor(f, g)
				}
				if r.Intn(3) == 0 {
					f = o.not(f)
				}
			}
			chi = o.and(chi, o.xnor(lit(nin+out), f))
		}
		o.push(chi)
		o.check(t, chi, "characteristic function")
		// The characteristic function pairs every output literal with
		// its complement — exactly where complement-edge sharing pays.
		// SharedSize must never exceed the classical count.
		if ss, cs := o.m.SharedSize(chi.n), o.m.Size(chi.n); ss > cs {
			t.Fatalf("seed %d: SharedSize %d exceeds classical Size %d", seed, ss, cs)
		}
		o.m.Sift(SiftOptions{Roots: []Node{chi.n}})
		orders = append(orders, orderRecord{seed, orderString(o.m)})
		o.check(t, chi, "post-sift characteristic function")
	}
	checkOrders(t, "charfn", orders)
}

// TestSiftMatchesReference builds randomized managers — grouped
// variables, several protected functions, optional cost-root subsets
// and precedence relations, mirroring how the synthesis flow drives
// Sift — and requires the incremental sifter to reproduce the final
// orders recorded from the pre-incremental sifter (full Size
// re-traversal after every swap, no interaction-matrix fast path, no
// lower-bound pruning), because the s-graphs and code the synthesis
// flow derives from the order are pinned byte for byte.
func TestSiftMatchesReference(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	var orders []orderRecord
	for trial := 0; trial < trials; trial++ {
		seed := int64(7100 + trial)
		r := rand.New(rand.NewSource(seed))
		m := New()
		vs := newVars(m, 8+r.Intn(6))
		// Bind a few adjacent pairs into groups, as the
		// multi-valued encoding does.
		for i := 0; i+1 < len(vs) && i < 4; i += 2 {
			if r.Intn(2) == 0 {
				if err := m.Group(vs[i], vs[i+1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		var funcs []Node
		for i := 0; i < 2+r.Intn(3); i++ {
			f := randomFunc(m, vs[:4+r.Intn(len(vs)-4)], r)
			m.Protect(f)
			funcs = append(funcs, f)
		}
		opts := SiftOptions{Passes: 1 + r.Intn(2)}
		// Half the trials measure a strict subset of the
		// protected functions, as the synthesis flow does with
		// the characteristic function.
		if r.Intn(2) == 0 && len(funcs) > 1 {
			opts.Roots = funcs[:1+r.Intn(len(funcs)-1)]
		}
		// A third of the trials add a random precedence relation
		// on group ids (kept acyclic by ordering on id).
		if r.Intn(3) == 0 {
			banned := r.Intn(3) + 1
			opts.Precede = func(a, b int32) bool {
				return a < b && int(b-a) <= banned
			}
		}
		m.Sift(opts)
		orders = append(orders, orderRecord{seed, orderString(m)})
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("seed %d: sifting broke invariants: %v", seed, err)
		}
	}
	checkOrders(t, "sift", orders)
}
