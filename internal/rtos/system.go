package rtos

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"polis/internal/cfsm"
)

// TraceEvent records one event occurrence during execution.
type TraceEvent struct {
	Time   int64
	Signal *cfsm.Signal
	Value  int64
	From   string // emitting machine, "env", or "isr"/"poll" for deliveries
}

// Probe observes the runtime at its three semantic points: an event
// delivered to a task's buffers, an execution starting with a frozen
// snapshot, and an execution completing. The netfuzz harness uses the
// stream to maintain a redundant model of the one-place-buffer and
// freeze-window semantics and cross-checks it against the
// implementation; the hooks carry raw deliveries, so a bug (or an
// injected Mutant) in the buffer bookkeeping cannot distort the
// observation stream that convicts it. env marks deliveries that
// originate directly from an environment stimulus (EmitEnv with
// interrupt delivery); internal emissions, hardware completions and
// deferred poll deliveries carry env=false.
//
// The hooks keep the map-based Snapshot/Reaction types; the runtime
// materialises them from its dense buffers only when a probe is
// attached, so probe-less simulation stays allocation-free.
type Probe interface {
	TaskPosted(t *Task, sig *cfsm.Signal, val int64, now int64, env bool)
	TaskBegan(t *Task, snap cfsm.Snapshot, now int64)
	TaskFinished(t *Task, r cfsm.Reaction, cycles int64, now int64)
}

// running is one in-flight software execution. The reaction's result
// lives in the task's reused buffers (a task has at most one in-flight
// execution), so the record is a small value — no per-execution
// allocation. task == nil marks "no execution".
type running struct {
	task  *Task
	end   int64
	cost  int64 // reaction cycles charged (without scheduler overhead)
	inISR bool
}

// hwRun is one in-flight hardware reaction.
type hwRun struct {
	task *Task
	end  int64
}

// routeEntry is one reader of a signal, in network order.
type routeEntry struct {
	t    *Task
	slot int // input slot of the signal in the reader's layout
	hw   bool
}

// sigRoute is the precomputed delivery plan of one signal: its readers
// in network order (so traces stay deterministic), the configured
// mechanism and the poll-port slot. Resolving this once at NewSystem
// removes the per-emission Readers() scan and map lookups from the hot
// loop.
type sigRoute struct {
	entries  []routeEntry
	swCount  int
	delivery Delivery
	inISR    bool
	pollSlot int // index into pollPort/pollValue; -1 when not polled
}

// System is the executable cycle-level model of one generated RTOS
// instance plus the CFSM network it serves. Software tasks contend for
// the single CPU under the configured policy; hardware machines react
// concurrently off-CPU after a fixed delay.
//
// Delivery is batched: when a reaction completes, its emissions are
// copied into a ring buffer and drained FIFO. Because emissions only
// ever occur at reaction completion (never while another emission is
// being routed), the FIFO drain delivers events in exactly the order
// the event-at-a-time reference implementation did.
type System struct {
	N   *cfsm.Network
	Cfg Config

	Tasks  []*Task // software tasks, in network order
	taskOf map[*cfsm.CFSM]*Task
	hwOf   map[*cfsm.CFSM]*Task
	// hwTasks lists hardware tasks in network order, so reaction
	// start-up is deterministic (map iteration is not).
	hwTasks []*Task

	// Probe, when set before the first EmitEnv/Advance, observes every
	// delivery, execution start and completion.
	Probe Probe

	// Ctx, when set, is polled periodically inside Advance so long
	// simulations cancel promptly; Advance then returns ctx.Err().
	Ctx context.Context

	Now int64
	// Trace records every event in order. It is appended to on each
	// delivery. A caller that can estimate the final event count
	// reserves it with ReserveTrace (sim projects it from the event
	// rate of the run's first stimuli); past its capacity, the trace
	// doubles (see record).
	Trace []TraceEvent

	current   running
	stack     []running // preempted executions
	hwRuns    []hwRun
	hwScratch []hwRun // reused buffer for completions due now
	freeAt    int64   // CPU occupied by ISR/poll bookkeeping until here

	routes map[*cfsm.Signal]*sigRoute
	queue  emitQueue

	// Polling: events from hardware/environment latched at the I/O
	// port until the poll routine runs. pollSigs lists the polled
	// signals in network order; pollPort/pollValue are indexed by the
	// route's pollSlot.
	pollSigs   []*cfsm.Signal
	pollPort   []bool
	pollValue  []int64
	nextPoll   int64
	hasPolling bool

	// ready is the ready set: one bit per software task, at the task's
	// dispatch rank, set exactly when the task is Enabled. byRank lists
	// the software tasks in rank order. Under RoundRobin the rank is
	// network order; under StaticPriority it is priority descending,
	// network order breaking ties, so the first set bit is the task the
	// policy picks. syncReady keeps the bits current at the only three
	// points a task's enabled/running state changes (post, begin,
	// finish), which makes dispatch a find-first-set instead of a scan.
	ready  []uint64
	byRank []*Task
	rr     int // round-robin cursor: the rank the next search starts at

	ctxTicks int // iterations since the last Ctx poll

	// Stats
	ScheduleCalls int64
	Interrupts    int64
	Polls         int64
	BusyCycles    int64
	// PollDropped counts events overwritten at the one-place poll port
	// before the poll routine could deliver them — event loss that
	// never reaches a task's buffers but is legal under the paper's
	// semantics, and must be accounted rather than silent.
	PollDropped int64
}

// NewSystem builds the runtime. makeTask supplies each software
// machine's reaction function and cost model (behavioural or
// VM-backed); hardware machines always react behaviourally.
func NewSystem(n *cfsm.Network, cfg Config,
	makeTask func(m *cfsm.CFSM) (*Task, error)) (*System, error) {
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	s := &System{
		N:      n,
		Cfg:    cfg,
		taskOf: make(map[*cfsm.CFSM]*Task),
		hwOf:   make(map[*cfsm.CFSM]*Task),
	}
	for _, m := range n.Machines {
		if cfg.HW[m] {
			t := NewBehavioralTask(m, func() int64 { return HWDelay })
			t.mutant = cfg.Mutant
			t.rank = -1
			s.hwOf[m] = t
			s.hwTasks = append(s.hwTasks, t)
			continue
		}
		t, err := makeTask(m)
		if err != nil {
			return nil, err
		}
		t.Priority = cfg.Priority[m]
		t.mutant = cfg.Mutant
		s.taskOf[m] = t
		s.Tasks = append(s.Tasks, t)
	}
	for _, d := range cfg.Deliver {
		if d == Polling {
			s.hasPolling = true
		}
	}
	for _, chain := range cfg.Chains {
		for i := 0; i+1 < len(chain); i++ {
			a := s.taskOf[chain[i]]
			b := s.taskOf[chain[i+1]]
			if a != nil && b != nil {
				a.chainNext = b
			}
		}
	}
	s.buildRoutes()
	s.rankTasks()
	s.nextPoll = PollPeriod
	return s, nil
}

// rankTasks fixes every software task's dispatch rank and sizes the
// ready set. Under StaticPriority a stable sort by descending priority
// keeps network order among equal priorities, which is the tie-break
// the policy defines.
func (s *System) rankTasks() {
	s.byRank = append([]*Task(nil), s.Tasks...)
	if s.Cfg.Policy == StaticPriority {
		sort.SliceStable(s.byRank, func(i, j int) bool { return s.byRank[i].Priority > s.byRank[j].Priority })
	}
	s.ready = make([]uint64, (len(s.byRank)+63)/64)
	for i, t := range s.byRank {
		t.rank = i
		s.syncReady(t)
	}
}

// syncReady mirrors t.Enabled() into the ready set. Hardware tasks
// (rank -1) never enter it.
func (s *System) syncReady(t *Task) {
	if t.rank < 0 {
		return
	}
	w, bit := t.rank>>6, uint64(1)<<(uint(t.rank)&63)
	if t.Enabled() {
		s.ready[w] |= bit
	} else {
		s.ready[w] &^= bit
	}
}

// nextReady returns the lowest rank >= from in the ready set, or -1.
func (s *System) nextReady(from int) int {
	w := from >> 6
	if w >= len(s.ready) {
		return -1
	}
	word := s.ready[w] &^ (uint64(1)<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		if w++; w == len(s.ready) {
			return -1
		}
		word = s.ready[w]
	}
}

// buildRoutes precomputes the delivery plan of every network signal.
func (s *System) buildRoutes() {
	s.routes = make(map[*cfsm.Signal]*sigRoute, len(s.N.Signals))
	for _, sig := range s.N.Signals {
		rt := &sigRoute{
			delivery: Interrupt,
			inISR:    s.Cfg.InISR[sig],
			pollSlot: -1,
		}
		if d, ok := s.Cfg.Deliver[sig]; ok {
			rt.delivery = d
		}
		for _, m := range s.N.Readers(sig) {
			if hw, ok := s.hwOf[m]; ok {
				rt.entries = append(rt.entries, routeEntry{t: hw, slot: hw.Lay.InSlot(sig), hw: true})
				continue
			}
			t := s.taskOf[m]
			rt.entries = append(rt.entries, routeEntry{t: t, slot: t.Lay.InSlot(sig)})
			rt.swCount++
		}
		s.routes[sig] = rt
	}
	// Poll ports, in network signal order (the drain order).
	for _, sig := range s.N.Signals {
		rt := s.routes[sig]
		if rt.delivery == Polling && rt.swCount > 0 {
			rt.pollSlot = len(s.pollSigs)
			s.pollSigs = append(s.pollSigs, sig)
		}
	}
	s.pollPort = make([]bool, len(s.pollSigs))
	s.pollValue = make([]int64, len(s.pollSigs))
}

// EmitEnv injects an environment event at the current time. Events
// bound for software pass through the configured delivery mechanism
// (interrupt or polling), exactly like emissions from the hardware
// partition. The returned error is a reaction failure of an
// ISR-context or hardware task (with the task name attached).
func (s *System) EmitEnv(sig *cfsm.Signal, val int64) error {
	s.record(sig, val, "env")
	return s.routeFromHardware(sig, val, true)
}

// ReserveTrace grows the trace's capacity to at least n events with
// one copy of the events recorded so far; a trace that already holds
// n does not move.
func (s *System) ReserveTrace(n int) {
	if n <= cap(s.Trace) {
		return
	}
	grown := make([]TraceEvent, len(s.Trace), n)
	copy(grown, s.Trace)
	s.Trace = grown
}

// minTraceCap is the capacity an unreserved trace starts at.
const minTraceCap = 64

// record appends an event at the current time to the trace. A full
// trace doubles its capacity. append would grow a large slice by only
// ~1.25x, copying a trace that outgrows its reservation about three
// times per doubling.
func (s *System) record(sig *cfsm.Signal, val int64, from string) {
	if len(s.Trace) == cap(s.Trace) {
		s.ReserveTrace(max(2*cap(s.Trace), minTraceCap))
	}
	s.Trace = append(s.Trace, TraceEvent{Time: s.Now, Signal: sig, Value: val, From: from})
}

// routeFromHardware delivers an event produced outside the CPU: to
// hardware readers directly, to software readers by interrupt or by
// latching it at the poll port. env marks direct environment stimuli
// for the probe.
func (s *System) routeFromHardware(sig *cfsm.Signal, val int64, env bool) error {
	rt := s.routes[sig]
	if rt == nil {
		return nil
	}
	interrupted := false
	for _, e := range rt.entries {
		if e.hw {
			if err := s.postToHW(e, sig, val, env); err != nil {
				return err
			}
			continue
		}
		switch rt.delivery {
		case Polling:
			if s.pollPort[rt.pollSlot] {
				// One-place port: the undelivered event is lost.
				s.PollDropped++
			}
			s.pollPort[rt.pollSlot] = true
			s.pollValue[rt.pollSlot] = val
		case Interrupt:
			if !interrupted {
				// One interrupt services all sensitive tasks.
				interrupted = true
				s.Interrupts++
				s.stealCPU(ISROverhead)
			}
			if err := s.postToTask(e.t, e.slot, sig, val, rt.inISR, env); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitFromSW delivers an event emitted by a software task.
func (s *System) emitFromSW(from *Task, sig *cfsm.Signal, val int64) error {
	s.record(sig, val, from.M.Name)
	rt := s.routes[sig]
	if rt == nil {
		return nil
	}
	extra := len(rt.entries) - 1
	if extra > 0 {
		s.stealCPU(int64(extra) * EmitOverhead)
	}
	for _, e := range rt.entries {
		if e.hw {
			if err := s.postToHW(e, sig, val, false); err != nil {
				return err
			}
			continue
		}
		if err := s.postToTask(e.t, e.slot, sig, val, false, false); err != nil {
			return err
		}
	}
	return nil
}

// postToHW delivers an event to a hardware reader: it arrives at once,
// from any source, and the hardware partition starts.
func (s *System) postToHW(e routeEntry, sig *cfsm.Signal, val int64, env bool) error {
	s.probePosted(e.t, sig, val, env)
	e.t.post(e.slot, val)
	return s.startHW()
}

// pushEmissions copies a completed reaction's emissions into the ring.
// Copying before any routing runs matters: routing can re-begin the
// emitting task in ISR context, which would overwrite the reused
// reaction buffer the emissions live in.
func (s *System) pushEmissions(from *Task, hw bool) {
	for _, em := range from.out.Emitted {
		s.queue.push(emitRec{from: from, sig: em.Signal, val: em.Value, hw: hw})
	}
}

// drainQueue routes queued emissions FIFO. Reactions triggered while
// draining (ISR-context executions) do not emit until they complete in
// the event loop, so the queue never grows mid-drain and the delivery
// order matches event-at-a-time routing exactly.
func (s *System) drainQueue() error {
	for !s.queue.empty() {
		e := s.queue.pop()
		if e.hw {
			s.record(e.sig, e.val, e.from.M.Name)
			if err := s.routeFromHardware(e.sig, e.val, false); err != nil {
				return err
			}
			continue
		}
		if err := s.emitFromSW(e.from, e.sig, e.val); err != nil {
			return err
		}
	}
	return nil
}

// probePosted reports a raw delivery to the probe.
func (s *System) probePosted(t *Task, sig *cfsm.Signal, val int64, env bool) {
	if s.Probe != nil {
		s.Probe.TaskPosted(t, sig, val, s.Now, env)
	}
}

// taskError attributes a reaction failure to its CFSM.
func taskError(t *Task, err error) error {
	return fmt.Errorf("rtos: task %s: %w", t.M.Name, err)
}

// beginTask freezes a snapshot, runs the reaction function and charges
// its cost, reporting begin to the probe. It is the single path every
// execution start takes. The reaction's result lives in t.out until
// finishTask.
func (s *System) beginTask(t *Task) (int64, error) {
	snap := t.begin()
	s.syncReady(t)
	if s.Probe != nil {
		s.Probe.TaskBegan(t, snap.Snapshot(), s.Now)
	}
	if err := t.react(snap, &t.out); err != nil {
		return 0, taskError(t, err)
	}
	return t.cost(), nil
}

// finishTask completes an execution and reports it to the probe.
func (s *System) finishTask(t *Task, cycles int64) {
	var r cfsm.Reaction
	if s.Probe != nil {
		r = t.out.Reaction(t.Lay)
	}
	t.finish(t.out.Fired, t.out.NextState)
	s.syncReady(t)
	if s.Probe != nil {
		s.Probe.TaskFinished(t, r, cycles, s.Now)
	}
}

// postToTask sets the private flag and handles preemption and
// ISR-context execution.
func (s *System) postToTask(t *Task, slot int, sig *cfsm.Signal, val int64, inISR, env bool) error {
	if t == nil {
		return nil
	}
	s.probePosted(t, sig, val, env)
	t.post(slot, val)
	s.syncReady(t)
	if inISR && !t.running {
		// Execute the critical task inside the ISR, ahead of
		// everything, unless it is already running.
		d, err := s.beginTask(t)
		if err != nil {
			return err
		}
		s.preemptCurrent()
		s.current = running{task: t, end: s.Now + d, cost: d, inISR: true}
		return nil
	}
	if s.Cfg.Preemptive && s.current.task != nil && !s.current.inISR &&
		t.Priority > s.current.task.Priority && t.Enabled() {
		s.preemptCurrent()
	}
	return nil
}

// preemptCurrent suspends the in-flight execution, remembering its
// remaining cycles.
func (s *System) preemptCurrent() {
	if s.current.task == nil {
		return
	}
	cur := s.current
	cur.end -= s.Now // store remaining cycles
	s.stack = append(s.stack, cur)
	s.current.task = nil
}

// stealCPU models cycles taken from the running task by ISR or RTOS
// bookkeeping: an in-flight execution finishes later.
func (s *System) stealCPU(cycles int64) {
	if cycles <= 0 {
		return
	}
	s.BusyCycles += cycles
	if s.current.task != nil {
		s.current.end += cycles
		return
	}
	if s.freeAt < s.Now {
		s.freeAt = s.Now
	}
	s.freeAt += cycles
}

// startHW begins reactions of enabled hardware machines; they run
// concurrently off-CPU. Iteration follows network order so the start
// sequence (and the resulting trace) is deterministic.
func (s *System) startHW() error {
	for _, hw := range s.hwTasks {
		if !hw.running && hw.Enabled() {
			if _, err := s.beginTask(hw); err != nil {
				return err
			}
			s.hwRuns = append(s.hwRuns, hwRun{task: hw, end: s.Now + HWDelay})
		}
	}
	return nil
}

// pickTask selects the next enabled software task under the policy:
// the first ready rank at or after the round-robin cursor (wrapping
// round), or the first ready rank overall under static priority.
func (s *System) pickTask() *Task {
	if s.Cfg.Policy == StaticPriority {
		if i := s.nextReady(0); i >= 0 {
			return s.byRank[i]
		}
		return nil
	}
	i := s.nextReady(s.rr)
	if i < 0 {
		i = s.nextReady(0)
	}
	if i < 0 {
		return nil
	}
	s.rr = (i + 1) % len(s.byRank)
	return s.byRank[i]
}

// resume pops the most recently preempted execution.
func (s *System) resume() {
	if len(s.stack) == 0 {
		return
	}
	cur := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	cur.end += s.Now // restore absolute completion time
	s.current = cur
}

// Advance runs the system until the given absolute time (in cycles).
func (s *System) Advance(to int64) error {
	if to < s.Now {
		return fmt.Errorf("rtos: time going backwards (%d < %d)", to, s.Now)
	}
	for {
		if s.Ctx != nil {
			if s.ctxTicks++; s.ctxTicks >= 1024 {
				s.ctxTicks = 0
				if err := s.Ctx.Err(); err != nil {
					return err
				}
			}
		}
		// Start work if the CPU is idle and not held by ISR/poll
		// bookkeeping. A preempted execution resumes unless a
		// strictly higher-priority task is enabled.
		if s.current.task == nil && s.Now >= s.freeAt {
			cand := s.pickTask()
			if len(s.stack) > 0 {
				top := s.stack[len(s.stack)-1]
				if cand == nil || !s.Cfg.Preemptive || cand.Priority <= top.task.Priority {
					s.resume()
					cand = nil
				}
			}
			if cand != nil {
				s.ScheduleCalls++
				d, err := s.beginTask(cand)
				if err != nil {
					return err
				}
				s.BusyCycles += ScheduleOverhead + d
				s.current = running{task: cand, end: s.Now + ScheduleOverhead + d, cost: d}
			}
		}

		// Find the next event.
		next := to
		kind := 0 // 0 none, 1 task done, 2 hw done, 3 poll, 4 cpu free
		if s.current.task != nil && s.current.end <= next {
			next = s.current.end
			kind = 1
		}
		if s.current.task == nil && s.freeAt > s.Now && s.workPending() && s.freeAt <= next {
			next = s.freeAt
			kind = 4
		}
		for i := range s.hwRuns {
			if s.hwRuns[i].end <= next {
				next = s.hwRuns[i].end
				kind = 2
			}
		}
		if s.hasPolling && s.nextPoll <= next {
			next = s.nextPoll
			kind = 3
		}
		if kind == 0 {
			s.Now = to
			return nil
		}
		s.Now = next
		switch kind {
		case 4:
			// CPU released by ISR/poll bookkeeping; loop to dispatch.
		case 1:
			cur := s.current
			s.current.task = nil
			s.finishTask(cur.task, cur.cost)
			s.pushEmissions(cur.task, false)
			if err := s.drainQueue(); err != nil {
				return err
			}
			// Chained successor: run back to back without a
			// scheduler decision (Section IV-A).
			if nxt := cur.task.chainNext; nxt != nil && nxt.Enabled() && s.current.task == nil {
				d, err := s.beginTask(nxt)
				if err != nil {
					return err
				}
				s.BusyCycles += d
				s.current = running{task: nxt, end: s.Now + d, cost: d}
			}
		case 2:
			// Complete all hardware runs due now, earliest deadline
			// first (stable for equal deadlines, like the reference).
			done := s.hwScratch[:0]
			rest := s.hwRuns[:0]
			for _, h := range s.hwRuns {
				if h.end <= s.Now {
					done = append(done, h)
				} else {
					rest = append(rest, h)
				}
			}
			s.hwRuns = rest
			for i := 1; i < len(done); i++ {
				for j := i; j > 0 && done[j].end < done[j-1].end; j-- {
					done[j], done[j-1] = done[j-1], done[j]
				}
			}
			for _, h := range done {
				s.finishTask(h.task, HWDelay)
				s.pushEmissions(h.task, true)
				if err := s.drainQueue(); err != nil {
					return err
				}
			}
			s.hwScratch = done[:0]
			// Buffered events may re-enable them.
			if err := s.startHW(); err != nil {
				return err
			}
		case 3:
			s.Polls++
			s.nextPoll += PollPeriod
			s.stealCPU(PollOverhead)
			// Drain the port in network signal order, so merges (and
			// thus traces) are identical between runs.
			for i, sig := range s.pollSigs {
				if !s.pollPort[i] {
					continue
				}
				val := s.pollValue[i]
				s.pollPort[i] = false
				rt := s.routes[sig]
				for _, e := range rt.entries {
					if e.hw {
						continue
					}
					s.record(sig, val, "poll")
					if err := s.postToTask(e.t, e.slot, sig, val, false, false); err != nil {
						return err
					}
				}
			}
		}
	}
}

// workPending reports whether any software work is waiting.
func (s *System) workPending() bool {
	if len(s.stack) > 0 {
		return true
	}
	for _, w := range s.ready {
		if w != 0 {
			return true
		}
	}
	return false
}

// Utilization returns the fraction of elapsed cycles the CPU was busy.
func (s *System) Utilization() float64 {
	if s.Now == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.Now)
}
