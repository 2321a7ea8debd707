package pipeline

import (
	"slices"
	"testing"

	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/vm"
)

// replayHost answers every presence query true and every value query
// with the signal's id, so a reaction takes the routine's present arms.
type replayHost struct{ vm.NopHost }

func (replayHost) Present(int) bool    { return true }
func (replayHost) Value(sig int) int64 { return int64(sig) }

// replayCycles runs a's program for a few reactions from its initial
// state and returns the cycles each took.
func replayCycles(t *testing.T, a *Artifact) []int64 {
	t.Helper()
	m := vm.NewMachine(defaultTarget, a.Program.Words, replayHost{})
	codegen.InitStateMemory(a.CFSM, a.Program, m)
	var cyc []int64
	for range 4 {
		c, err := m.Run(a.Program, codegen.EntryLabel(a.CFSM))
		if err != nil {
			t.Fatalf("%s: %v", a.Module, err)
		}
		cyc = append(cyc, c)
	}
	return cyc
}

// TestArtifactsKeepNoScratch requires that the back end's reused
// scratch (instruction, listing, memo and layout buffers) is not
// reachable from an artifact: synthesizing 200 more modules on four
// workers must leave the designs' artifacts, synthesized first, as
// they were.
func TestArtifactsKeepNoScratch(t *testing.T) {
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	first, err := RunModules(ms, Options{Reduce: true}, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		instrs     []vm.Instr
		listing, c string
		cycles     []int64
	}
	want := make([]snapshot, len(first))
	for i, a := range first {
		want[i] = snapshot{
			instrs:  slices.Clone(a.Program.Instrs),
			listing: string([]byte(a.Listing)),
			c:       string([]byte(a.C)),
			cycles:  replayCycles(t, a),
		}
	}

	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	net := testNetwork(t, 31, 200)
	if _, err := RunModules(net.Machines, Options{Reduce: true}, Config{Jobs: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}

	for i, a := range first {
		w := want[i]
		if !slices.Equal(a.Program.Instrs, w.instrs) {
			t.Errorf("%s: instructions changed after later syntheses", a.Module)
		}
		if a.Listing != w.listing {
			t.Errorf("%s: listing changed after later syntheses", a.Module)
		}
		if a.C != w.c {
			t.Errorf("%s: C changed after later syntheses", a.Module)
		}
		if got := replayCycles(t, a); !slices.Equal(got, w.cycles) {
			t.Errorf("%s: replayed cycles %v, want %v", a.Module, got, w.cycles)
		}
	}
}

// TestProgramListingMatchesArtifact requires that an artifact's
// program, which keeps its label names and notes as references into
// the machine, renders the same listing the artifact stored when it
// was synthesized.
func TestProgramListingMatchesArtifact(t *testing.T) {
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	arts, err := RunModules(ms, Options{Reduce: true}, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		if got := a.Program.Listing(); got != a.Listing {
			t.Errorf("%s: Program.Listing() differs from the artifact's listing:\n%s\nwant:\n%s", a.Module, got, a.Listing)
		}
	}
}
