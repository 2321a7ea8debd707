package netfuzz

import (
	"fmt"
	"sort"

	"polis/internal/cfsm"
	"polis/internal/rtos"
)

// Violation is one invariant failure observed during a run.
type Violation struct {
	// Invariant names the broken property: "generate", "run-error",
	// "panic", "buffer-model", "loss-accounting", "trace-divergence",
	// "state-divergence".
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// maxModelViolations caps the per-model report so a systematically
// wrong semantics (a mutant) does not flood the output; the count of
// suppressed violations is still reported.
const maxModelViolations = 8

// taskState is the redundant model's copy of one task's one-place
// buffers. It is rebuilt purely from the probe's raw delivery stream,
// so bugs in the Task bookkeeping itself cannot distort the evidence
// that convicts them.
type taskState struct {
	name    string
	visible map[*cfsm.Signal]int64 // present events (key = presence)
	pend    map[*cfsm.Signal]int64 // arrived during the freeze window
	frozen  map[*cfsm.Signal]int64 // snapshot of the in-flight run
	running bool
	enabled bool
	lost    int64
	execs   int64
	fired   int64
}

// Model is an independent implementation of the Section II one-place
// buffer semantics, driven by the rtos.Probe observation stream. At
// every execution start it compares the implementation's frozen
// snapshot against its own buffers, and at the end of the run it
// compares the loss/execution accounting. It also observes whether the
// run was serialized (every environment stimulus arrived while no
// event was in flight) and contention-free, which is what licenses the
// strict cross-mode trace comparison.
type Model struct {
	tasks map[*rtos.Task]*taskState
	order []*rtos.Task // first-seen order, for deterministic reports

	active     int  // tasks with running||enabled: in-flight events
	serial     bool // every env post so far hit a quiescent system
	contended  int64
	violations []Violation
	suppressed int
}

// NewModel returns an empty model; attach it via sim.Options.Probe.
func NewModel() *Model {
	return &Model{tasks: make(map[*rtos.Task]*taskState), serial: true}
}

func (m *Model) state(t *rtos.Task) *taskState {
	ts := m.tasks[t]
	if ts == nil {
		ts = &taskState{
			name:    t.M.Name,
			visible: make(map[*cfsm.Signal]int64),
			pend:    make(map[*cfsm.Signal]int64),
		}
		m.tasks[t] = ts
		m.order = append(m.order, t)
	}
	return ts
}

func (ts *taskState) activeNow() bool { return ts.running || ts.enabled }

// refresh re-derives the in-flight event count after a state change.
func (m *Model) refresh(ts *taskState, was bool) {
	now := ts.activeNow()
	if was == now {
		return
	}
	if now {
		m.active++
	} else {
		m.active--
	}
}

func (m *Model) violate(inv, format string, args ...any) {
	if len(m.violations) >= maxModelViolations {
		m.suppressed++
		return
	}
	m.violations = append(m.violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// TaskPosted mirrors one delivery into the model's buffers.
func (m *Model) TaskPosted(t *rtos.Task, sig *cfsm.Signal, val int64, now int64, env bool) {
	ts := m.state(t)
	if env && m.active != 0 {
		// An environment stimulus landed while a cascade was still in
		// flight: arrival order at shared readers may now depend on
		// execution timing, so the strict trace comparison is off.
		m.serial = false
	}
	if ts.running || ts.enabled {
		m.contended++
	}
	was := ts.activeNow()
	if ts.running {
		if _, dup := ts.pend[sig]; dup {
			ts.lost++
		}
		ts.pend[sig] = val
	} else {
		if _, dup := ts.visible[sig]; dup {
			ts.lost++
		}
		ts.visible[sig] = val
		ts.enabled = true
	}
	m.refresh(ts, was)
}

// TaskBegan checks the implementation's frozen snapshot against the
// model's visible buffers and starts the freeze window.
func (m *Model) TaskBegan(t *rtos.Task, snap cfsm.Snapshot, now int64) {
	ts := m.state(t)
	if ts.running {
		m.violate("buffer-model", "task %s began while already running (t=%d)", ts.name, now)
	}
	// Both checks walk the task's inputs in declaration order, not
	// the maps, so a replayed failure reports the same lines in the
	// same order. Every key of either map is one of those inputs:
	// deliveries are routed to input slots, and snapshots are built
	// from them.
	for _, s := range t.M.Inputs {
		if !snap.Present[s] {
			continue
		}
		v, ok := ts.visible[s]
		if !ok {
			m.violate("buffer-model",
				"task %s t=%d: snapshot presents %s but the model's buffer is empty (flags consumed or invented wrongly)",
				ts.name, now, s.Name)
			continue
		}
		if got := snap.Values[s]; got != v {
			m.violate("buffer-model",
				"task %s t=%d: snapshot value of %s is %d, model says %d (stale one-place buffer)",
				ts.name, now, s.Name, got, v)
		}
	}
	for _, s := range t.M.Inputs {
		if _, ok := ts.visible[s]; ok && !snap.Present[s] {
			m.violate("buffer-model",
				"task %s t=%d: model expects %s present but the snapshot misses it (event preservation violated)",
				ts.name, now, s.Name)
		}
	}
	was := ts.activeNow()
	ts.frozen = make(map[*cfsm.Signal]int64, len(ts.visible))
	for s, v := range ts.visible {
		ts.frozen[s] = v
	}
	ts.running = true
	ts.enabled = false
	m.refresh(ts, was)
}

// TaskFinished closes the freeze window: consumed flags clear only on
// a fired transition, pending events become visible and overwrites
// count as loss.
func (m *Model) TaskFinished(t *rtos.Task, r cfsm.Reaction, cycles int64, now int64) {
	ts := m.state(t)
	if !ts.running {
		m.violate("buffer-model", "task %s finished without a matching begin (t=%d)", ts.name, now)
		return
	}
	was := ts.activeNow()
	ts.execs++
	if r.Fired {
		ts.fired++
		for s := range ts.frozen {
			delete(ts.visible, s)
		}
	}
	// Per-signal pend merges are independent, so map order is fine.
	for s, v := range ts.pend {
		if _, dup := ts.visible[s]; dup {
			ts.lost++
		}
		ts.visible[s] = v
		ts.enabled = true
		delete(ts.pend, s)
	}
	ts.frozen = nil
	ts.running = false
	m.refresh(ts, was)
}

// Finish compares the end-of-run accounting: the implementation's
// Lost/Executions/Fired counters must equal the model's. Call after
// sim.Run returns.
func (m *Model) Finish() {
	for _, t := range m.order {
		ts := m.tasks[t]
		if ts.lost != t.Lost {
			m.violate("loss-accounting",
				"task %s: implementation counted %d lost events, model counted %d (overwrites must be accounted, never silent)",
				ts.name, t.Lost, ts.lost)
		}
		if ts.execs != t.Executions || ts.fired != t.Fired {
			m.violate("loss-accounting",
				"task %s: implementation ran %d/%d (exec/fired), model saw %d/%d",
				ts.name, t.Executions, t.Fired, ts.execs, ts.fired)
		}
	}
	if m.suppressed > 0 {
		m.violations = append(m.violations, Violation{
			Invariant: "buffer-model",
			Detail:    fmt.Sprintf("%d further model violations suppressed", m.suppressed),
		})
	}
}

// Serial reports whether every environment stimulus arrived while no
// event was in flight. Only then is the cross-mode event arrival order
// timing-independent.
func (m *Model) Serial() bool { return m.serial }

// Contended counts deliveries to a task that was running or already
// enabled — the situations where freeze-window merging or ordering
// races can legally change behavior between modes.
func (m *Model) Contended() int64 { return m.contended }

// TotalLost sums the model's own overwrite count across tasks.
func (m *Model) TotalLost() int64 {
	var n int64
	for _, t := range m.order {
		n += m.tasks[t].lost
	}
	return n
}

// Violations returns the model's findings, sorted for determinism.
func (m *Model) Violations() []Violation {
	out := append([]Violation(nil), m.violations...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Invariant != out[j].Invariant {
			return out[i].Invariant < out[j].Invariant
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}
