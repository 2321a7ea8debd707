package verify

import (
	"strings"
	"testing"

	"polis/internal/baseline"
	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/expr"
)

func TestReachableCounter(t *testing.T) {
	c := cfsm.New("ctr")
	tick := c.AddInput("tick", true)
	st := c.AddState("s", 4, 0)
	p := c.Present(tick)
	sel := c.Sel(st)
	for k := 0; k < 4; k++ {
		c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(int64((k+1)%4))))
	}
	sp, err := DefaultSpace(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(c, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 4 {
		t.Errorf("reachable states %d, want 4", len(res.States))
	}
	if res.Truncated {
		t.Error("must not truncate")
	}
}

func TestInvariantHoldsOnTimer(t *testing.T) {
	// The dashboard timer's counter stays within [0, 150].
	d := designs.NewDashboard()
	m := d.Timer
	var cnt *cfsm.StateVar
	for _, sv := range m.States {
		if sv.Name == "tmr_cnt" {
			cnt = sv
		}
	}
	if cnt == nil {
		t.Fatal("tmr_cnt missing")
	}
	sp, err := DefaultSpace(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(m, sp, Options{
		Invariant: func(st State) bool { return st[cnt] >= 0 && st[cnt] <= 150 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("timer counter escaped its bound:\n%s", FormatTrace(res.Violation))
	}
	if res.Truncated {
		t.Error("timer state space must be finite under the bound")
	}
	// 151 counter values x 2 counting states is the upper bound; the
	// reachable set must stay within it.
	if len(res.States) > 302 {
		t.Errorf("reachable states %d exceed the semantic bound", len(res.States))
	}
}

func TestInvariantViolationTrace(t *testing.T) {
	// A counter with a deliberate off-by-one: the guard allows cnt to
	// reach 3 although the invariant demands < 3.
	c := cfsm.New("bad")
	tick := c.AddInput("t", true)
	cnt := c.AddState("n", 0, 0)
	p := c.Present(tick)
	lt := c.Pred(expr.Le(expr.V("n"), expr.C(2))) // allows n=2 -> n=3
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(p, 1), on(lt, 1)},
		c.Assign(cnt, expr.Add(expr.V("n"), expr.C(1))))
	sp, err := DefaultSpace(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(c, sp, Options{
		Invariant: func(st State) bool { return st[cnt] < 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("violation must be found")
	}
	if len(res.Violation) != 3 {
		t.Errorf("shortest counterexample has 3 steps, got %d", len(res.Violation))
	}
	tr := FormatTrace(res.Violation)
	if !strings.Contains(tr, "n=3") {
		t.Errorf("trace must end in n=3:\n%s", tr)
	}
}

func TestBeltAlarmProperty(t *testing.T) {
	// Safety property of the belt controller: the machine is in the
	// alarm state (2) only after end_5 occurred without key_off or
	// belt_on cancelling — over the enumerated environment, state 2
	// is reachable, and from state 2 a belt_on always leaves it.
	d := designs.NewDashboard()
	m := d.Belt
	var st *cfsm.StateVar
	for _, sv := range m.States {
		if sv.Name == "belt_st" {
			st = sv
		}
	}
	sp, err := DefaultSpace(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(m, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundAlarm := false
	for _, s := range res.States {
		if s[st] == 2 {
			foundAlarm = true
			// belt_on in the alarm state must return to 0.
			snap := cfsm.Snapshot{
				Present: map[*cfsm.Signal]bool{d.BeltOn: true},
				Values:  map[*cfsm.Signal]int64{},
				State:   s,
			}
			r := m.React(snap)
			if !r.Fired || r.NextState[st] != 0 {
				t.Errorf("belt_on in alarm state must silence: %+v", r)
			}
		}
	}
	if !foundAlarm {
		t.Error("alarm state must be reachable")
	}
}

// TestSymbolicBeltSkeleton: the belt controller's pure control
// skeleton reaches exactly its 3 control states under the enumerated
// environment.
func TestSymbolicBeltSkeleton(t *testing.T) {
	d := designs.NewDashboard()
	sp, err := DefaultSpace(d.Belt, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(d.Belt, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 3 {
		t.Errorf("belt has 3 control states, got %d", len(res.States))
	}
}

func TestValuedSpace(t *testing.T) {
	c := cfsm.New("v")
	in := c.AddInput("v", false)
	st := c.AddState("max", 0, 0)
	p := c.Present(in)
	gt := c.Pred(expr.Gt(expr.V("?v"), expr.V("max")))
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(p, 1), on(gt, 1)}, c.Assign(st, expr.V("?v")))
	sp, err := DefaultSpace(c, map[*cfsm.Signal][]int64{in: {1, 5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(c, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// max takes values {0,1,3,5}: 4 states.
	if len(res.States) != 4 {
		t.Errorf("states %d, want 4", len(res.States))
	}
	// Missing values for a valued input is an error.
	if _, err := DefaultSpace(c, nil); err == nil {
		t.Error("valued input without candidates must be rejected")
	}
}

// TestNetworkProductVerification lifts verification to the network
// level through the synchronous composition: the belt+timer+buzzer
// product must never beep while the belt controller is out of the
// alarm state.
func TestNetworkProductVerification(t *testing.T) {
	n, d := designs.BeltSubnet()
	prod, err := baseline.SingleFSM(n)
	if err != nil {
		t.Fatal(err)
	}
	var beltSt, bzOn *cfsm.StateVar
	for _, sv := range prod.States {
		switch sv.Name {
		case "belt_st":
			beltSt = sv
		case "bz_on":
			bzOn = sv
		}
	}
	if beltSt == nil || bzOn == nil {
		t.Fatal("product state variables missing")
	}
	sp, err := DefaultSpace(prod, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(prod, sp, Options{
		// Safety: the buzzer latch is set only while the belt
		// controller is alarming or has just left the state in the
		// same tick; the invariant checked is the weaker stable
		// property that a beeping buzzer implies the belt controller
		// passed through the alarm state (bz_on=1 -> belt_st != 1 is
		// NOT an invariant; what must hold is bz_on=1 -> belt was in
		// state 2 when alarm_on fired, which manifests as: bz_on can
		// only be 1 together with belt_st in {0, 2} — never while
		// still waiting).
		Invariant: func(st State) bool {
			return !(st[bzOn] == 1 && st[beltSt] == 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("buzzer latched while belt still waiting:\n%s", FormatTrace(res.Violation))
	}
	if res.Truncated {
		t.Error("product state space should be explored exhaustively")
	}
	_ = d
	t.Logf("product: %d reachable states, %d (state,stimulus) pairs explored",
		len(res.States), res.Explored)
}

// TestReachableCounterWithReset: a modulo-4 counter with a reset over
// a 5-valued state variable reaches exactly 4 states (value 4 never).
func TestReachableCounterWithReset(t *testing.T) {
	c := cfsm.New("ctr4")
	tick := c.AddInput("tick", true)
	rst := c.AddInput("rst", true)
	st := c.AddState("s", 5, 0) // value 4 is unreachable
	p := c.Present(tick)
	pr := c.Present(rst)
	sel := c.Sel(st)
	for k := 0; k < 4; k++ {
		c.AddTransition([]cfsm.Cond{cfsm.On(pr, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(0)))
		c.AddTransition([]cfsm.Cond{cfsm.On(pr, 0), cfsm.On(p, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(int64((k+1)%4))))
	}
	sp, err := DefaultSpace(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reachable(c, sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 4 {
		t.Errorf("reachable states %d, want 4 (value 4 unreachable)", len(res.States))
	}
}
