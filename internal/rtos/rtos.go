// Package rtos implements the automatically generated real-time
// operating system of Section IV: scheduling of software CFSMs,
// event emission/detection through private presence flags and
// one-place value buffers, transfer of events between hardware and
// software partitions (polling or interrupts), and the consumption
// atomicity rule — once a CFSM starts reading its input flags, no new
// flags become visible until it finishes, but events arriving in that
// window are remembered for the next execution.
//
// The package provides an executable cycle-level model of the
// generated RTOS (used by internal/sim for co-simulation), a ROM/RAM
// size model for it, and a C source generator for the artefact a
// target build would compile.
//
// The runtime model is throughput-oriented: task buffers are dense
// arrays indexed by slots the cfsm.Layout resolves once at task
// construction, and a steady-state reaction allocates nothing. The
// simulator's golden tests (internal/sim/testdata/engine_golden.json)
// pin it trace-for-trace to the outcomes of the map-based,
// event-at-a-time engine it replaced, and the netfuzz harness checks
// every delivery and execution against an independent buffer model.
package rtos

import (
	"fmt"

	"polis/internal/cfsm"
	"polis/internal/names"
)

// Policy selects the scheduling discipline.
type Policy int

// Scheduling policies offered by the generator (Section IV-A).
const (
	RoundRobin Policy = iota
	StaticPriority
)

// policyNames is the name table of the policies, indexed by Policy.
var policyNames = []string{RoundRobin: "rr", StaticPriority: "prio"}

// ParsePolicy resolves a policy by name: "rr" or "prio".
func ParsePolicy(name string) (Policy, error) {
	return names.Parse[Policy]("policy", policyNames, name)
}

// Name returns the name ParsePolicy resolves to p.
func (p Policy) Name() string { return names.Name(policyNames, p) }

func (p Policy) String() string {
	if p == RoundRobin {
		return "round-robin"
	}
	return "static-priority"
}

// Delivery selects how events produced by the hardware partition reach
// software CFSMs (Section IV-C).
type Delivery int

// Delivery mechanisms.
const (
	Interrupt Delivery = iota
	Polling
)

// Config describes one generated RTOS instance.
type Config struct {
	Policy     Policy
	Preemptive bool
	// Priority gives each software machine its static priority
	// (higher runs first); unset machines default to 0.
	Priority map[*cfsm.CFSM]int
	// HW marks machines implemented in hardware: they react with a
	// fixed short delay outside the CPU.
	HW map[*cfsm.CFSM]bool
	// Deliver selects polling or interrupts per environment/hardware
	// signal; the default is Interrupt, as in the paper.
	Deliver map[*cfsm.Signal]Delivery
	// InISR marks events whose sensitive software CFSMs execute
	// inside the interrupt service routine itself, giving the most
	// critical tasks immediate attention.
	InISR map[*cfsm.Signal]bool
	// Chains lists orderings of software machines whose executions
	// the RTOS chains into a single task (Section IV-A): when a
	// machine in a chain completes and its successor was enabled by
	// the completion's emissions (or was already enabled), the
	// successor runs immediately without a scheduler decision,
	// removing the scheduling overhead between them. A machine may
	// appear in at most one chain.
	Chains [][]*cfsm.CFSM

	// Mutant injects an intentionally wrong event-buffer semantics
	// into every task. It exists solely so the netfuzz harness can
	// prove it detects semantic bugs (a mutant self-check); production
	// configurations leave it at MutantNone.
	Mutant Mutant
}

// Mutant enumerates the known-bad semantics available for harness
// self-validation. Each one is a minimal, realistic slip in the
// one-place-buffer bookkeeping of Section II.
type Mutant int

// Mutants.
const (
	// MutantNone is the correct semantics.
	MutantNone Mutant = iota
	// MutantLostUndercount forgets to count an overwritten event, so
	// event loss becomes silent.
	MutantLostUndercount
	// MutantStaleOverwrite keeps the old buffered value when a new
	// event overwrites a one-place buffer (the overwrite updates the
	// flag but not the value — a classic off-by-one in the buffer
	// update sequence).
	MutantStaleOverwrite
	// MutantConsumeUnfired clears the input flags even when no
	// transition fired, violating the event-preservation rule of
	// Section IV-D.
	MutantConsumeUnfired
)

// The RTOS's fixed timing, in cycles of the target CPU.
const (
	HWDelay          = 2    // reaction delay of a hardware machine
	PollPeriod       = 2000 // period of the polling routine
	ScheduleOverhead = 18   // one scheduler decision
	EmitOverhead     = 9    // one event emission (flag fan-out)
	ISROverhead      = 24   // interrupt entry/exit
	PollOverhead     = 14   // one poll routine execution
)

// DefaultConfig returns a round-robin non-preemptive configuration
// with interrupt delivery — the setup of the paper's shock-absorber
// redesign.
func DefaultConfig() Config {
	return Config{
		Policy:   RoundRobin,
		Priority: map[*cfsm.CFSM]int{},
		HW:       map[*cfsm.CFSM]bool{},
		Deliver:  map[*cfsm.Signal]Delivery{},
		InISR:    map[*cfsm.Signal]bool{},
	}
}

// Task is the runtime record of one software CFSM: its private input
// flags and value buffers, the frozen snapshot while it executes, and
// the events remembered for the next execution (Section IV-D). All
// buffers are dense arrays indexed by the slots of the machine's
// cfsm.Layout; begin/post/finish allocate nothing.
type Task struct {
	M *cfsm.CFSM
	// Priority is the task's static priority, set by NewSystem from
	// Config.Priority. NewSystem reads it once to fix the task's
	// dispatch rank; changing it afterwards does not reorder dispatch.
	Priority int

	// Lay resolves this machine's signals and state variables to the
	// dense slot indices all buffers below are addressed with.
	Lay *cfsm.Layout

	// flags/values are the visible one-place input buffers, by input
	// slot.
	flags  []bool
	values []int64
	// pendFlags/pendValues buffer events arriving while the task
	// executes (the freeze window).
	pendFlags  []bool
	pendValues []int64

	running bool
	enabled bool // set by event arrival, cleared when a run starts

	// react executes one reaction on the frozen dense snapshot,
	// writing the result into out. A reaction error — e.g. a
	// virtual-machine fault in co-simulation — aborts the whole system
	// run with the task name attached; it never panics.
	react func(snap *cfsm.DenseSnapshot, out *cfsm.DenseReaction) error
	// cost returns the execution time in cycles of the reaction just
	// produced by react.
	cost func() int64

	// mutant is the injected bad semantics (harness self-checks only),
	// copied from the system config.
	mutant Mutant

	// state is the committed state, by state slot.
	state []int64
	// frozen is the reused snapshot buffer of the in-flight execution;
	// out is the reused reaction buffer it produced. Both stay valid
	// until finish because a task has at most one in-flight execution.
	frozen *cfsm.DenseSnapshot
	out    cfsm.DenseReaction

	// chainNext is the chain successor, resolved by NewSystem.
	chainNext *Task
	// rank is the task's bit in its System's ready set, fixed by
	// NewSystem; -1 for hardware tasks.
	rank int

	// Stats
	Executions int64
	Fired      int64
	Lost       int64 // overwritten events (one-place buffers)
}

// Enabled reports whether the task must be scheduled: an event has
// arrived since its last execution started. A task whose execution
// fired no transition keeps its unconsumed flags (Section IV-D) but is
// not re-scheduled until a new event occurs — otherwise it would spin
// on the preserved events.
func (t *Task) Enabled() bool {
	return t.enabled && !t.running
}

// post delivers an event to the task's buffers, honouring the freeze
// window: while the task runs, the event waits in the pending buffers.
// slot is the input slot of the signal in the task's layout.
func (t *Task) post(slot int, v int64) {
	if t.running {
		t.deliver(t.pendFlags, t.pendValues, slot, v)
		return
	}
	t.deliver(t.flags, t.values, slot, v)
	t.enabled = true
}

// deliver writes event value v into one-place buffer slot of
// flags/values, counting the overwrite of an event already there as
// lost. Every delivery goes through here, so the buffer mutants act on
// all of them alike.
func (t *Task) deliver(flags []bool, values []int64, slot int, v int64) {
	if flags[slot] {
		if t.mutant != MutantLostUndercount {
			t.Lost++
		}
		if t.mutant == MutantStaleOverwrite {
			return // flag already set; stale value kept
		}
	}
	flags[slot] = true
	values[slot] = v
}

// begin freezes the input snapshot into the task's reused buffer and
// marks the task running. Values of absent signals read as zero,
// matching the map-based snapshot that held no entry for them.
func (t *Task) begin() *cfsm.DenseSnapshot {
	d := t.frozen
	for i, p := range t.flags {
		d.Present[i] = p
		if p {
			d.Values[i] = t.values[i]
		} else {
			d.Values[i] = 0
		}
	}
	copy(d.State, t.state)
	t.running = true
	t.enabled = false
	return d
}

// finish completes an execution: consumed flags are cleared only when
// a transition fired, pending events become visible, and the next
// state is committed.
func (t *Task) finish(fired bool, nextState []int64) {
	t.Executions++
	if fired {
		t.Fired++
		for i, p := range t.frozen.Present {
			if p {
				t.flags[i] = false
			}
		}
		copy(t.state, nextState)
	} else if t.mutant == MutantConsumeUnfired {
		for i, p := range t.frozen.Present {
			if p {
				t.flags[i] = false
			}
		}
	}
	for i, p := range t.pendFlags {
		if !p {
			continue
		}
		t.deliver(t.flags, t.values, i, t.pendValues[i])
		t.enabled = true
		t.pendFlags[i] = false
	}
	t.running = false
}

// NewDenseTask builds the runtime record for a software CFSM with a
// dense reaction function and cost model. lay may be nil, in which
// case a fresh layout is built for the machine.
func NewDenseTask(m *cfsm.CFSM, lay *cfsm.Layout,
	react func(snap *cfsm.DenseSnapshot, out *cfsm.DenseReaction) error,
	cost func() int64) *Task {
	if lay == nil {
		lay = cfsm.NewLayout(m)
	}
	ni, ns := len(lay.Ins), len(lay.States)
	t := &Task{
		M:          m,
		Lay:        lay,
		flags:      make([]bool, ni),
		values:     make([]int64, ni),
		pendFlags:  make([]bool, ni),
		pendValues: make([]int64, ni),
		state:      make([]int64, ns),
		react:      react,
		cost:       cost,
		frozen:     lay.NewDense(),
	}
	for i, sv := range lay.States {
		t.state[i] = sv.Init
	}
	t.out.NextState = make([]int64, 0, ns)
	return t
}

// NewBehavioralTask builds a task that reacts with the dense reference
// interpreter (allocation-free) and a fixed cost model.
func NewBehavioralTask(m *cfsm.CFSM, cost func() int64) *Task {
	lay := cfsm.NewLayout(m)
	react := func(snap *cfsm.DenseSnapshot, out *cfsm.DenseReaction) error {
		lay.ReactInto(snap, out)
		return nil
	}
	return NewDenseTask(m, lay, react, cost)
}

// State exposes the task's committed state (for assertions and
// latency checks in tests and experiments).
func (t *Task) State(sv *cfsm.StateVar) int64 {
	slot := t.Lay.StateSlot(sv)
	if slot < 0 {
		return 0
	}
	return t.state[slot]
}

// Validate checks a configuration against a network. A machine may
// not be named after a trace source (FromEnv or the poll routine), or
// TraceEvent.Emitted would drop its emissions.
func (c *Config) Validate(n *cfsm.Network) error {
	if c.Preemptive && c.Policy == RoundRobin {
		return fmt.Errorf("rtos: preemption requires static priorities")
	}
	for _, m := range n.Machines {
		if m.Name == FromEnv || m.Name == fromPoll {
			return fmt.Errorf("rtos: machine name %q is reserved for a trace source", m.Name)
		}
	}
	for s := range c.InISR {
		if d, ok := c.Deliver[s]; ok && d != Interrupt {
			return fmt.Errorf("rtos: signal %s marked InISR but delivered by polling", s.Name)
		}
	}
	seen := make(map[*cfsm.CFSM]bool)
	for _, chain := range c.Chains {
		for _, m := range chain {
			if c.HW[m] {
				return fmt.Errorf("rtos: chained machine %s is in the hardware partition", m.Name)
			}
			if seen[m] {
				return fmt.Errorf("rtos: machine %s appears in more than one chain", m.Name)
			}
			seen[m] = true
		}
	}
	return nil
}
