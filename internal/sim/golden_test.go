package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"polis/internal/netfuzz"
	"polis/internal/rtos"
	"polis/internal/sim"
)

// These tests pin the engine's observable outcome on 176 randomized
// scenarios (netfuzz.GenScenario: networks, RTOS configurations and
// stimulus timelines, including same-cycle bursts that stress the
// batched delivery queue) to testdata/engine_golden.json, one record
// per scenario. The records were produced by the map-based,
// event-at-a-time reference engine this one replaced, and this engine
// reproduced every one of them. The cfsm.React cross-check
// (CheckOptions.VMAgainstReference) and the netfuzz buffer model stay
// as independent oracles. Regenerate deliberately with
// `go test ./internal/sim -run EngineMatchesReference -update`.

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json")

// goldenSet is one family of recorded scenarios: a seed range run in
// one mode, optionally with the per-reaction cross-checks on (so the
// dense engine's snapshot materialisation path is exercised too).
type goldenSet struct {
	name     string
	from, to int64
	mode     sim.Mode
	check    bool
}

var (
	behavioralSet = goldenSet{"behavioral", 1, 120, sim.Behavioral, false}
	vmSet         = goldenSet{"vm", 1, 40, sim.VMExact, false}
	vmCheckedSet  = goldenSet{"vm-checked", 200, 215, sim.VMExact, true}
	goldenSets    = []goldenSet{behavioralSet, vmSet, vmCheckedSet}
)

// taskCounts is one task's accounting.
type taskCounts struct {
	Name       string `json:"name"`
	Executions int64  `json:"exec"`
	Fired      int64  `json:"fired"`
	Lost       int64  `json:"lost"`
}

// engineRecord is the observable outcome of one scenario. Fields stay
// separate so a mismatch names what changed.
type engineRecord struct {
	Set           string       `json:"set"`
	Seed          int64        `json:"seed"`
	Err           string       `json:"err,omitempty"`
	Cycles        int64        `json:"cycles"`
	CodeBytes     int64        `json:"code"`
	DataBytes     int64        `json:"data"`
	ScheduleCalls int64        `json:"sched"`
	Interrupts    int64        `json:"irq"`
	Polls         int64        `json:"polls"`
	BusyCycles    int64        `json:"busy"`
	PollDropped   int64        `json:"dropped"`
	TraceLen      int          `json:"trace_len"`
	TraceHash     string       `json:"trace_sha256"`
	Tasks         []taskCounts `json:"tasks"`
	StatesHash    string       `json:"states_sha256"`
}

// runScenario runs one scenario of set s, with the scenario's mutant
// replaced when mutant is non-nil, and returns its record.
func runScenario(t *testing.T, s goldenSet, seed int64, mutant *rtos.Mutant) engineRecord {
	t.Helper()
	sc, err := netfuzz.GenScenario(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if mutant != nil {
		sc.Cfg.Mutant = *mutant
	}
	opt := sim.Options{Cfg: sc.Cfg, Mode: s.mode}
	if s.check {
		opt.Check = sim.CheckOptions{VMAgainstReference: true, CycleBounds: true}
	}
	rec := engineRecord{Set: s.name, Seed: seed}
	res, err := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, opt)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	sys := res.System
	rec.Cycles, rec.CodeBytes, rec.DataBytes = res.Cycles, res.CodeBytes, res.DataBytes
	rec.ScheduleCalls, rec.Interrupts, rec.Polls = sys.ScheduleCalls, sys.Interrupts, sys.Polls
	rec.BusyCycles, rec.PollDropped = sys.BusyCycles, sys.PollDropped
	h := sha256.New()
	for _, ev := range res.Trace {
		fmt.Fprintf(h, "%d %s %d %s\n", ev.Time, ev.Signal.Name, ev.Value, ev.From)
	}
	rec.TraceLen, rec.TraceHash = len(res.Trace), hex.EncodeToString(h.Sum(nil))
	h.Reset()
	for _, task := range sys.Tasks {
		rec.Tasks = append(rec.Tasks, taskCounts{task.M.Name, task.Executions, task.Fired, task.Lost})
		for _, sv := range task.M.States {
			fmt.Fprintf(h, "%s.%s=%d\n", task.M.Name, sv.Name, task.State(sv))
		}
	}
	rec.StatesHash = hex.EncodeToString(h.Sum(nil))
	return rec
}

// diffRecords lists the fields on which got departs from want.
func diffRecords(got, want engineRecord) []string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s %v, recorded %v", gv.Type().Field(i).Name, g, w))
		}
	}
	return out
}

const goldenPath = "testdata/engine_golden.json"

func loadGolden(t *testing.T) []engineRecord {
	t.Helper()
	var recs []engineRecord
	blob, err := os.ReadFile(goldenPath)
	if err == nil {
		err = json.Unmarshal(blob, &recs)
	}
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	return recs
}

// recordsOf returns the records of set s, in seed order.
func recordsOf(recs []engineRecord, s goldenSet) []engineRecord {
	var out []engineRecord
	for _, r := range recs {
		if r.Set == s.name {
			out = append(out, r)
		}
	}
	return out
}

// writeGolden records every set, one record per line.
func writeGolden(t *testing.T) {
	var lines []string
	for _, s := range goldenSets {
		for seed := s.from; seed <= s.to; seed++ {
			blob, err := json.Marshal(runScenario(t, s, seed, nil))
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(blob))
		}
	}
	out := "[\n" + strings.Join(lines, ",\n") + "\n]\n"
	if err := os.WriteFile(goldenPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden runs every scenario of s and compares it with its record.
func checkGolden(t *testing.T, s goldenSet) {
	if *updateGolden {
		writeGolden(t)
		return
	}
	want := recordsOf(loadGolden(t), s)
	if len(want) != int(s.to-s.from+1) {
		t.Fatalf("%s: golden has %d records, want %d (run with -update)", s.name, len(want), s.to-s.from+1)
	}
	for _, w := range want {
		if d := diffRecords(runScenario(t, s, w.Seed, nil), w); d != nil {
			t.Errorf("%s seed %d: %s", s.name, w.Seed, strings.Join(d, "; "))
		}
	}
}

func TestEngineMatchesReferenceBehavioral(t *testing.T) { checkGolden(t, behavioralSet) }

func TestEngineMatchesReferenceVM(t *testing.T) { checkGolden(t, vmSet) }

func TestEngineMatchesReferenceVMChecked(t *testing.T) { checkGolden(t, vmCheckedSet) }

// TestGoldenCatchesMutants proves the golden gate detects semantic
// bugs: re-running the recorded scenarios whose configuration has the
// correct buffer semantics with each known-bad rtos.Mutant injected
// must change at least one record.
func TestGoldenCatchesMutants(t *testing.T) {
	recs := loadGolden(t)
mutants:
	for name, mutant := range map[string]rtos.Mutant{
		"lost-undercount": rtos.MutantLostUndercount,
		"stale-overwrite": rtos.MutantStaleOverwrite,
		"consume-unfired": rtos.MutantConsumeUnfired,
	} {
		for _, s := range goldenSets {
			for _, want := range recordsOf(recs, s) {
				sc, err := netfuzz.GenScenario(want.Seed)
				if err != nil {
					t.Fatal(err)
				}
				if sc.Cfg.Mutant != rtos.MutantNone {
					continue
				}
				if d := diffRecords(runScenario(t, s, want.Seed, &mutant), want); d != nil {
					t.Logf("mutant %s caught by %s seed %d: %s", name, s.name, want.Seed, d[0])
					continue mutants
				}
			}
		}
		t.Errorf("mutant %s: no recorded scenario changed", name)
	}
}
