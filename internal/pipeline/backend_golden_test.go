package pipeline

// Back-end regression gate: every artifact the stages after the
// s-graph produce — the C routine, the object-code listing, the
// estimate, the measured cycles and code size, the s-graph statistics
// and the copy plan — is pinned by a hash per (module, options
// variant) in testdata/backend_golden.json. Code generation, cycle
// analysis and estimation may change how they compute, never what.
// Regenerate deliberately with `go test ./internal/pipeline -run
// BackendGolden -update`.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// backendRecord pins one (module, variant) back-end result.
type backendRecord struct {
	Module    string `json:"module"`
	Variant   string `json:"variant"`
	CodeBytes int    `json:"code_bytes"`
	WCET      int64  `json:"wcet"`
	Hash      string `json:"hash"`
}

// backendGoldenModules returns ~60 random machines (every 7th drawn
// from the doubled configuration) followed by the paper's dashboard
// and shock-absorber modules.
func backendGoldenModules() []*cfsm.CFSM {
	var ms []*cfsm.CFSM
	for i := 0; i < 60; i++ {
		cfg := randcfsm.DefaultConfig()
		if i%7 == 0 {
			cfg = randcfsm.Scaled(2)
		}
		ms = append(ms, randcfsm.New(rand.New(rand.NewSource(int64(1000+i))), cfg).C)
	}
	ms = append(ms, designs.NewDashboard().Modules()...)
	return append(ms, designs.NewShockAbsorber().Modules()...)
}

// hashArtifact writes everything the back end produced for one module
// into h.
func hashArtifact(h hash.Hash, c *cfsm.CFSM, a *Artifact) {
	io.WriteString(h, a.C)
	h.Write([]byte{0})
	io.WriteString(h, a.Listing)
	h.Write([]byte{0})
	fmt.Fprintf(h, "%+v|%+v|%d|%+v\n", a.Estimate, a.Measured, a.CodeSize, a.Stats)
	plan := codegen.NewRoutine(a.SGraph, codegen.Options{}).Plan
	for _, sv := range c.States {
		fmt.Fprintf(h, "%s:%t:%t\n", sv.Name, plan.Read[sv], plan.NeedCopy[sv])
	}
	for _, sig := range c.Inputs {
		fmt.Fprintf(h, "?%s:%t\n", sig.Name, plan.ValueRead[sig])
	}
}

// randomSpecProfile draws a scenario profile over m's tests: a few
// dozen outcome vectors with random counts, enough to give most TEST
// vertices a non-identity hot order.
func randomSpecProfile(r *rand.Rand, m *cfsm.CFSM) *sgraph.SpecializeProfile {
	sp := &sgraph.SpecializeProfile{Outcomes: make(map[string]int64)}
	for _, t := range m.Tests {
		sp.TestNames = append(sp.TestNames, t.Name())
	}
	vec := make([]string, len(m.Tests))
	for k := 0; k < 40; k++ {
		for i, t := range m.Tests {
			vec[i] = strconv.Itoa(r.Intn(t.Arity()))
		}
		sp.Outcomes[strings.Join(vec, ",")] += int64(1 + r.Intn(100))
	}
	return sp
}

// collapsedSpecialized runs the back end SynthesizeModule runs, on a
// reduced graph whose TEST trees are collapsed into multi-way vertices
// and then specialized under a random profile, so the
// if-chain/jump-table threshold and the Hot layouts both run.
func collapsedSpecialized(t *testing.T, m *cfsm.CFSM, r *rand.Rand) *Artifact {
	t.Helper()
	opt := Options{Reduce: true, UseFalsePaths: true, Codegen: codegen.Options{IfThreshold: 4}}
	opt.fill()
	sg, err := SynthesizeGraph(context.Background(), m, opt, nil)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	sg.SGraph.CollapseTests(0)
	if _, sg.Vectors, err = sg.SGraph.Specialize(randomSpecProfile(r, m)); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	a, err := backEnd(context.Background(), m, sg, opt, nopTrace{})
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return a
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// backendGoldenRun synthesizes every module under reduce off/on ×
// OptimizeCopies off/on × UseFalsePaths off/on (variant "r1 c0 f1" is
// reduce on, copies off, false paths on) and once collapsed and
// specialized.
func backendGoldenRun(t *testing.T) []backendRecord {
	t.Helper()
	var out []backendRecord
	add := func(m *cfsm.CFSM, variant string, a *Artifact) {
		h := sha256.New()
		hashArtifact(h, m, a)
		out = append(out, backendRecord{
			Module:    m.Name,
			Variant:   variant,
			CodeBytes: a.CodeSize,
			WCET:      a.Measured.Max,
			Hash:      hex.EncodeToString(h.Sum(nil)),
		})
	}
	for i, m := range backendGoldenModules() {
		for _, reduce := range []bool{false, true} {
			for _, copies := range []bool{false, true} {
				for _, falsePaths := range []bool{false, true} {
					opt := Options{
						Reduce:        reduce,
						UseFalsePaths: falsePaths,
						Codegen:       codegen.Options{OptimizeCopies: copies},
					}
					a, err := SynthesizeModule(m, opt, nil)
					if err != nil {
						t.Fatalf("%s: %v", m.Name, err)
					}
					add(m, fmt.Sprintf("r%d c%d f%d", b2i(reduce), b2i(copies), b2i(falsePaths)), a)
				}
			}
		}
		add(m, "collapse+specialize", collapsedSpecialized(t, m, rand.New(rand.NewSource(int64(i)))))
	}
	return out
}

// TestBackendGolden asserts that the back end still produces exactly
// the recorded artifacts.
func TestBackendGolden(t *testing.T) {
	got := backendGoldenRun(t)
	path := filepath.Join("testdata", "backend_golden.json")
	if *updateGolden {
		// One record per line keeps the file small and its diffs
		// readable.
		blob := []byte("[\n")
		for i, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, line...)
			if i+1 < len(got) {
				blob = append(blob, ',')
			}
			blob = append(blob, '\n')
		}
		blob = append(blob, "]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	var want []backendRecord
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	mismatches := 0
	for i := range want {
		if got[i] != want[i] {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("record %d diverged:\n want %+v\n  got %+v", i, want[i], got[i])
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d further mismatches", mismatches-5)
	}
}
