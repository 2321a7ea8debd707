package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/vm"
)

// The oracles run off the clock. Each returns one line per failed
// operation; the workloads count those lines as failures.

// vmOracle runs each module's object code on vm.Machine over seeded
// snapshots and compares emissions and next state with the reference
// interpreter cfsm.React (the method of internal/crosstest).
func vmOracle(sn *synthNet, arts []*pipeline.Artifact, seed int64) []string {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	prof := vm.HC11()
	var bad []string
	for i, a := range arts {
		m := sn.machines[i]
		for k := 0; k < oracleSnapshots; k++ {
			snap := randomSnapshot(r, m, sn.ranges[i])
			got, err := runObject(prof, a.Program, m, snap)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: vm: %v", m.Name, err))
				break
			}
			if g, w := reactionKey(m, got), reactionKey(m, m.React(snap)); g != w {
				bad = append(bad, fmt.Sprintf("%s: vm %s, interpreter %s", m.Name, g, w))
				break
			}
		}
	}
	return bad
}

// randomSnapshot draws inputs and state for one machine; valued inputs
// and data variables take values in [0, vrange).
func randomSnapshot(r *rand.Rand, m *cfsm.CFSM, vrange int64) cfsm.Snapshot {
	snap := m.NewSnapshot()
	for _, in := range m.Inputs {
		snap.Present[in] = r.Intn(2) == 1
		if !in.Pure {
			snap.Values[in] = r.Int63n(vrange)
		}
	}
	for _, sv := range m.States {
		if sv.Domain > 0 {
			snap.State[sv] = int64(r.Intn(sv.Domain))
		} else {
			snap.State[sv] = r.Int63n(vrange)
		}
	}
	return snap
}

// snapHost serves a snapshot to the VM and collects emissions.
type snapHost struct {
	byID    map[int]*cfsm.Signal
	snap    cfsm.Snapshot
	emitted []cfsm.Emission
}

func (h *snapHost) Present(sig int) bool { return h.snap.Present[h.byID[sig]] }
func (h *snapHost) Value(sig int) int64  { return h.snap.Values[h.byID[sig]] }
func (h *snapHost) Emit(sig int) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig]})
}
func (h *snapHost) EmitValue(sig int, v int64) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig], Value: v})
}

// runObject executes one reaction of a module's object code.
func runObject(prof *vm.Profile, p *vm.Program, m *cfsm.CFSM, snap cfsm.Snapshot) (cfsm.Reaction, error) {
	if p == nil {
		return cfsm.Reaction{}, fmt.Errorf("no object code")
	}
	h := &snapHost{byID: make(map[int]*cfsm.Signal), snap: snap}
	for s, id := range codegen.NewSignalMap(m) {
		h.byID[id] = s
	}
	mach := vm.NewMachine(prof, p.Words, h)
	for _, sv := range m.States {
		mach.Mem[p.Symbols["st_"+sv.Name]] = snap.State[sv]
	}
	if _, err := mach.Run(p, codegen.EntryLabel(m)); err != nil {
		return cfsm.Reaction{}, err
	}
	r := cfsm.Reaction{NextState: map[*cfsm.StateVar]int64{}, Emitted: h.emitted}
	for _, sv := range m.States {
		r.NextState[sv] = mach.Mem[p.Symbols["st_"+sv.Name]]
	}
	return r, nil
}

// reactionKey canonicalises a reaction: emissions as a sorted multiset
// (object code may reorder independent emissions), then the next state.
func reactionKey(m *cfsm.CFSM, r cfsm.Reaction) string {
	ems := make([]string, len(r.Emitted))
	for i, e := range r.Emitted {
		ems[i] = e.Signal.Name + ":" + strconv.FormatInt(e.Value, 10)
	}
	sort.Strings(ems)
	var b strings.Builder
	b.WriteString(strings.Join(ems, " "))
	b.WriteString(" //")
	for _, sv := range m.States {
		fmt.Fprintf(&b, " %s=%d", sv.Name, r.NextState[sv])
	}
	return b.String()
}

// compareArtifacts checks a run's artifacts against reference
// artifacts field by field (live handles excluded, since disk hits do
// not carry them).
func compareArtifacts(got, want []*pipeline.Artifact) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%d artifacts, want %d", len(got), len(want))}
	}
	var bad []string
	for i := range want {
		if d := artifactDiff(got[i], want[i]); d != "" {
			bad = append(bad, fmt.Sprintf("%s: %s differs", want[i].Module, d))
		}
	}
	return bad
}

// artifactDiff names the first serialisable field in which two
// artifacts differ, or returns "".
func artifactDiff(got, want *pipeline.Artifact) string {
	if got == nil || want == nil {
		return "presence"
	}
	g, w := *got, *want
	g.CFSM, g.SGraph, g.Program = nil, nil, nil
	w.CFSM, w.SGraph, w.Program = nil, nil, nil
	gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return gv.Type().Field(i).Name
		}
	}
	return ""
}

// serveExpect is what an uncached synthesis of one machine version
// says a service result must carry.
type serveExpect struct {
	codeSize  int
	maxCycles int64
}

// serveResult is the part of one module result the oracle checks.
type serveResult struct {
	module, fingerprint string
	codeSize            int
	maxCycles           int64
	err                 string
}

// serveOracle checks one service response: every module is present and
// its fingerprint is the client's current one (fps, by module name),
// and its code size and worst-case cycles equal an uncached synthesis
// of that version (want, by fingerprint). A stale hit fails both.
func serveOracle(results []serveResult, fps map[string]string, want map[string]serveExpect) []string {
	var bad []string
	if len(results) != len(fps) {
		bad = append(bad, fmt.Sprintf("%d results for %d modules", len(results), len(fps)))
	}
	for _, r := range results {
		switch fp, ok := fps[r.module]; {
		case r.err != "":
			bad = append(bad, fmt.Sprintf("%s: %s", r.module, r.err))
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: unknown module", r.module))
		case r.fingerprint != fp:
			bad = append(bad, fmt.Sprintf("%s: fingerprint of a stale version", r.module))
		case r.codeSize != want[fp].codeSize || r.maxCycles != want[fp].maxCycles:
			bad = append(bad, fmt.Sprintf("%s: code_size %d max_cycles %d, uncached synthesis says %d and %d",
				r.module, r.codeSize, r.maxCycles, want[fp].codeSize, want[fp].maxCycles))
		}
	}
	return bad
}

// traceHash fingerprints a simulation trace event by event.
func traceHash(tr []rtos.TraceEvent) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, e := range tr {
		b = strconv.AppendInt(b[:0], e.Time, 10)
		b = append(b, ' ')
		b = append(b, e.Signal.Name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, e.Value, 10)
		b = append(b, ' ')
		b = append(b, e.From...)
		b = append(b, '\n')
		h.Write(b)
	}
	return h.Sum64()
}

// simOracle compares one run's trace hash and reaction count with the
// checked set-up run's.
func simOracle(hash uint64, reactions int64, wantHash uint64, wantReactions int64) []string {
	if hash != wantHash || reactions != wantReactions {
		return []string{fmt.Sprintf("trace %016x with %d reactions, checked run %016x with %d",
			hash, reactions, wantHash, wantReactions)}
	}
	return nil
}
