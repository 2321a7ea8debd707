package vm_test

import (
	"context"
	"math/rand"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/vm"
)

// snapHost serves the VM's traps from a dense snapshot and drops
// emissions, so the benchmark times the machine and nothing around it.
type snapHost struct {
	inSlot []int // signal id -> input slot, -1 for pure outputs
	snap   *cfsm.DenseSnapshot
}

func (h *snapHost) Present(sig int) bool {
	return h.inSlot[sig] >= 0 && h.snap.Present[h.inSlot[sig]]
}

func (h *snapHost) Value(sig int) int64 {
	if h.inSlot[sig] < 0 {
		return 0
	}
	return h.snap.Values[h.inSlot[sig]]
}

func (h *snapHost) Emit(int)             {}
func (h *snapHost) EmitValue(int, int64) {}

// routine is one assembled module with its machine and its fixed
// snapshot sequence.
type routine struct {
	prog      *vm.Program
	entry     string
	m         *vm.Machine
	host      *snapHost
	stateAddr []int // state slot -> data address
	snaps     []*cfsm.DenseSnapshot
}

// designRoutines synthesizes every module of the paper's designs (the
// dashboard and the shock absorber) as the co-simulator does, and
// draws perModule snapshots for each from a fixed seed.
func designRoutines(b *testing.B, prof *vm.Profile, perModule int) []*routine {
	r := rand.New(rand.NewSource(1))
	mods := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	var rs []*routine
	for _, c := range mods {
		sg, err := pipeline.SynthesizeGraph(context.Background(), c, pipeline.Options{Target: prof}, nil)
		if err != nil {
			b.Fatal(err)
		}
		sigs := codegen.NewSignalMap(c)
		prog, err := codegen.Assemble(sg.SGraph, sigs, codegen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lay := cfsm.NewLayout(c)
		h := &snapHost{inSlot: make([]int, len(sigs))}
		for s, id := range sigs {
			h.inSlot[id] = lay.InSlot(s)
		}
		rt := &routine{prog: prog, entry: codegen.EntryLabel(c), host: h}
		rt.m = vm.NewMachine(prof, prog.Words, h)
		for _, sv := range lay.States {
			rt.stateAddr = append(rt.stateAddr, prog.Symbols["st_"+sv.Name])
		}
		for k := 0; k < perModule; k++ {
			d := lay.NewDense()
			for i, in := range lay.Ins {
				d.Present[i] = r.Intn(2) == 1
				if d.Present[i] && !in.Pure {
					d.Values[i] = r.Int63n(200)
				}
			}
			for i, sv := range lay.States {
				if sv.Domain > 0 {
					d.State[i] = int64(r.Intn(sv.Domain))
				} else {
					d.State[i] = r.Int63n(200)
				}
			}
			rt.snaps = append(rt.snaps, d)
		}
		rs = append(rs, rt)
	}
	return rs
}

// BenchmarkMachineRun times the VM layer alone: each op runs every
// design module once per snapshot of its fixed sequence on the HC11
// profile. It reports ns/reaction and cycles/reaction; the cycle count
// is deterministic, so a change to it is a change in the generated
// code or the cost model, not noise.
func BenchmarkMachineRun(b *testing.B) {
	rs := designRoutines(b, vm.HC11(), 64)
	var cycles, reactions int64
	pass := func() {
		for _, rt := range rs {
			for _, snap := range rt.snaps {
				rt.host.snap = snap
				for j, addr := range rt.stateAddr {
					rt.m.Mem[addr] = snap.State[j]
				}
				c, err := rt.m.Run(rt.prog, rt.entry)
				if err != nil {
					b.Fatal(err)
				}
				cycles += c
				reactions++
			}
		}
	}
	pass() // decode every routine before timing
	cycles, reactions = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reactions), "ns/reaction")
	b.ReportMetric(float64(cycles)/float64(reactions), "cycles/reaction")
}
