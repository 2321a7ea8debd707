// Package crosstest differentially tests every implementation path of
// the synthesis flow against the reference CFSM interpreter on
// hundreds of randomly generated machines: the s-graph interpreter
// under each ordering, the assembled object code on both targets, the
// boolean-circuit implementation, the two-level-jump baseline, and the
// estimator's bound consistency.
package crosstest

import (
	"math/rand"
	"sort"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/estimate"
	"polis/internal/logic"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"

	"polis/internal/baseline"
)

// mustCalibrate calibrates a built-in profile, failing the test on a
// calibration error.
func mustCalibrate(t *testing.T, prof *vm.Profile) *estimate.Params {
	t.Helper()
	p, err := estimate.Calibrate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reactionKey canonicalises a reaction for comparison: emissions as a
// sorted multiset plus the next state.
func reactionKey(m *cfsm.CFSM, r cfsm.Reaction) string {
	ems := make([]string, len(r.Emitted))
	for i, e := range r.Emitted {
		ems[i] = e.Signal.Name + ":" + itoa(e.Value)
	}
	sort.Strings(ems)
	out := ""
	for _, e := range ems {
		out += e + "|"
	}
	out += "//"
	for _, sv := range m.States {
		out += sv.Name + "=" + itoa(r.NextState[sv]) + ";"
	}
	return out
}

func itoa(v int64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// snapHost exposes a snapshot to the VM.
type snapHost struct {
	byID    map[int]*cfsm.Signal
	snap    cfsm.Snapshot
	emitted []cfsm.Emission
}

func newSnapHost(sigs codegen.SignalMap, snap cfsm.Snapshot) *snapHost {
	h := &snapHost{byID: make(map[int]*cfsm.Signal), snap: snap}
	for s, id := range sigs {
		h.byID[id] = s
	}
	return h
}

func (h *snapHost) Present(sig int) bool { return h.snap.Present[h.byID[sig]] }
func (h *snapHost) Value(sig int) int64  { return h.snap.Values[h.byID[sig]] }
func (h *snapHost) Emit(sig int) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig]})
}
func (h *snapHost) EmitValue(sig int, v int64) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig], Value: v})
}

// runProgram executes one reaction of an assembled routine.
func runProgram(t *testing.T, m *cfsm.CFSM, p *vm.Program, prof *vm.Profile,
	sigs codegen.SignalMap, snap cfsm.Snapshot) cfsm.Reaction {
	t.Helper()
	h := newSnapHost(sigs, snap)
	mach := vm.NewMachine(prof, p.Words, h)
	for _, sv := range m.States {
		mach.Mem[p.Symbols["st_"+sv.Name]] = snap.State[sv]
	}
	if _, err := mach.Run(p, codegen.EntryLabel(m)); err != nil {
		t.Fatalf("%s: vm: %v", m.Name, err)
	}
	r := cfsm.Reaction{NextState: map[*cfsm.StateVar]int64{}, Emitted: h.emitted}
	for _, sv := range m.States {
		r.NextState[sv] = mach.Mem[p.Symbols["st_"+sv.Name]]
	}
	return r
}

// TestCrossImplementations is the main differential fuzz: 60 random
// machines x 40 snapshots x 8 implementations.
func TestCrossImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	machines := 60
	if testing.Short() {
		machines = 12
	}
	for mi := 0; mi < machines; mi++ {
		gen := randcfsm.New(rng, randcfsm.DefaultConfig())
		m := gen.C
		if err := m.Validate(); err != nil {
			t.Fatalf("machine %d invalid: %v", mi, err)
		}
		if err := m.CheckDeterministic(); err != nil {
			t.Fatalf("machine %d: generator produced nondeterminism: %v", mi, err)
		}

		// Implementations under test.
		type impl struct {
			name string
			run  func(snap cfsm.Snapshot) cfsm.Reaction
		}
		var impls []impl
		sigs := codegen.NewSignalMap(m)

		for _, ord := range []sgraph.Ordering{
			sgraph.OrderNaive, sgraph.OrderSiftInputsFirst, sgraph.OrderSiftAfterSupport,
		} {
			r, err := cfsm.BuildReactive(m)
			if err != nil {
				t.Fatalf("machine %d: %v", mi, err)
			}
			g, err := sgraph.Build(r, ord)
			if err != nil {
				t.Fatalf("machine %d/%v: %v", mi, ord, err)
			}
			if err := g.CheckWellFormed(); err != nil {
				t.Fatalf("machine %d/%v: %v", mi, ord, err)
			}
			gg := g
			impls = append(impls, impl{"sgraph-" + ord.String(), gg.Evaluate})

			if ord == sgraph.OrderSiftAfterSupport {
				for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
					p, err := codegen.Assemble(gg, sigs, codegen.Options{})
					if err != nil {
						t.Fatalf("machine %d: %v", mi, err)
					}
					pp, prf := p, prof
					impls = append(impls, impl{"vm-" + prf.Name, func(snap cfsm.Snapshot) cfsm.Reaction {
						return runProgram(t, m, pp, prf, sigs, snap)
					}})
				}
				// Copy-optimised codegen.
				pOpt, err := codegen.Assemble(gg, sigs, codegen.Options{OptimizeCopies: true})
				if err != nil {
					t.Fatalf("machine %d: %v", mi, err)
				}
				impls = append(impls, impl{"vm-optcopies", func(snap cfsm.Snapshot) cfsm.Reaction {
					return runProgram(t, m, pOpt, vm.HC11(), sigs, snap)
				}})
				// Collapsed s-graph.
				rc, err := cfsm.BuildReactive(m)
				if err != nil {
					t.Fatal(err)
				}
				gc, err := sgraph.Build(rc, ord)
				if err != nil {
					t.Fatal(err)
				}
				gc.CollapseTests(32)
				impls = append(impls, impl{"sgraph-collapsed", gc.Evaluate})

				// Estimator sanity: bounds must bracket the measured
				// object code cycles (checked separately below).
			}
		}
		// Boolean circuit.
		{
			r, err := cfsm.BuildReactive(m)
			if err != nil {
				t.Fatal(err)
			}
			n, err := logic.Build(r)
			if err != nil {
				t.Fatalf("machine %d: circuit: %v", mi, err)
			}
			impls = append(impls, impl{"circuit", n.Evaluate})
			cp, err := logic.Assemble(n, sigs, codegen.Options{})
			if err != nil {
				t.Fatalf("machine %d: circuit asm: %v", mi, err)
			}
			impls = append(impls, impl{"circuit-vm", func(snap cfsm.Snapshot) cfsm.Reaction {
				return runProgram(t, m, cp, vm.HC11(), sigs, snap)
			}})
		}
		// Two-level jump.
		if p2, err := baseline.TwoLevelJump(m, sigs, codegen.Options{}); err == nil {
			impls = append(impls, impl{"two-level", func(snap cfsm.Snapshot) cfsm.Reaction {
				return runProgram(t, m, p2, vm.HC11(), sigs, snap)
			}})
		}

		for si := 0; si < 40; si++ {
			snap := randomSnapshot(gen)
			want := reactionKey(m, m.React(snap))
			for _, im := range impls {
				got := reactionKey(m, im.run(snap))
				if got != want {
					t.Fatalf("machine %d snapshot %d: %s diverges\nreference: %s\n%s: %s",
						mi, si, im.name, want, im.name, got)
				}
			}
		}
	}
}

// TestEstimatorBracketsMeasurement checks on random machines that the
// estimator's [min,max] cycle bounds track the object-code analyzer
// within tolerance and that size errors stay small.
func TestEstimatorBracketsMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	machines := 40
	if testing.Short() {
		machines = 8
	}
	for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		params := mustCalibrate(t, prof)
		for mi := 0; mi < machines; mi++ {
			gen := randcfsm.New(rng, randcfsm.DefaultConfig())
			m := gen.C
			r, err := cfsm.BuildReactive(m)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sgraph.Build(r, sgraph.OrderSiftAfterSupport)
			if err != nil {
				t.Fatal(err)
			}
			p, err := codegen.Assemble(g, codegen.NewSignalMap(m), codegen.Options{})
			if err != nil {
				t.Fatal(err)
			}
			est := estimate.EstimateSGraph(g, params, estimate.Options{})
			act, err := vm.AnalyzeCycles(prof, p, codegen.EntryLabel(m))
			if err != nil {
				t.Fatal(err)
			}
			checkPct(t, prof.Name, mi, "size", est.CodeBytes, int64(prof.CodeSize(p)), 20)
			checkPct(t, prof.Name, mi, "max", est.MaxCycles, act.Max, 20)
			checkPct(t, prof.Name, mi, "min", est.MinCycles, act.Min, 20)
		}
	}
}

func checkPct(t *testing.T, prof string, mi int, what string, est, act int64, tol float64) {
	t.Helper()
	if act == 0 {
		return
	}
	err := 100 * float64(est-act) / float64(act)
	if err < -tol || err > tol {
		t.Errorf("%s machine %d: %s estimate %d vs measured %d (%.1f%%)",
			prof, mi, what, est, act, err)
	}
}

// randomSnapshot draws a snapshot over the machine's inputs and state.
func randomSnapshot(m *randcfsm.Machine) cfsm.Snapshot {
	r := m.Rng
	snap := m.C.NewSnapshot()
	for _, in := range m.Inputs {
		snap.Present[in] = r.Intn(2) == 1
		if !in.Pure {
			snap.Values[in] = r.Int63n(m.Range)
		}
	}
	for _, sv := range m.C.States {
		if sv.Domain > 0 {
			snap.State[sv] = int64(r.Intn(sv.Domain))
		} else {
			snap.State[sv] = r.Int63n(m.Range)
		}
	}
	return snap
}
