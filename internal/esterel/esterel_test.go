package esterel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// fig1 is the paper's Fig. 1 module, verbatim modulo ASCII operators.
const fig1 = `
module simple: % CFSM name
input c : integer; % integer input signal
output y; % pure output signal
var a : integer in % local state variable
loop % loop forever
  await c; % wait for c to be present
  if a = ?c then % if a is equal to the value of c
    a := 0; emit y;
  else
    a := a + 1;
  end if
end loop
end var
end module
`

func TestParseFig1(t *testing.T) {
	m, err := Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "simple" {
		t.Errorf("name %q", m.Name)
	}
	if len(m.Inputs) != 1 || m.Inputs[0].Name != "c" || !m.Inputs[0].Valued {
		t.Errorf("inputs: %+v", m.Inputs)
	}
	if len(m.Outputs) != 1 || m.Outputs[0].Name != "y" || m.Outputs[0].Valued {
		t.Errorf("outputs: %+v", m.Outputs)
	}
	if len(m.Vars) != 1 || m.Vars[0].Name != "a" {
		t.Errorf("vars: %+v", m.Vars)
	}
	if len(m.Body) != 1 {
		t.Fatalf("body: %+v", m.Body)
	}
	if _, ok := m.Body[0].(LoopStmt); !ok {
		t.Errorf("body[0] is %T, want LoopStmt", m.Body[0])
	}
}

func TestCompileFig1Behaviour(t *testing.T) {
	c, sigs := MustCompile(fig1)
	if err := c.CheckDeterministic(); err != nil {
		t.Fatal(err)
	}
	in := sigs["c"]
	y := sigs["y"]
	var a *cfsm.StateVar
	for _, sv := range c.States {
		if sv.Name == "a" {
			a = sv
		}
	}
	if a == nil {
		t.Fatal("state a missing")
	}

	snap := c.NewSnapshot()
	// No event: nothing happens.
	if r := c.React(snap); r.Fired {
		t.Error("fired without event")
	}
	// Count up to the input value, then emit.
	snap.Present[in] = true
	snap.Values[in] = 2
	emitted := 0
	for i := 0; i < 6; i++ {
		r := c.React(snap)
		if !r.Fired {
			t.Fatal("must fire")
		}
		for _, em := range r.Emitted {
			if em.Signal == y {
				emitted++
			}
		}
		snap.State = r.NextState
	}
	// a: 0->1->2->match(emit, reset)->1->2->match: two emissions.
	if emitted != 2 {
		t.Errorf("emitted %d, want 2", emitted)
	}
	if snap.State[a] != 0 {
		t.Errorf("a = %d after second match, want 0", snap.State[a])
	}
}

func TestCompileFig1ThroughSGraph(t *testing.T) {
	c, sigs := MustCompile(fig1)
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.Build(r, sgraph.OrderSiftAfterSupport)
	if err != nil {
		t.Fatal(err)
	}
	in := sigs["c"]
	rng := rand.New(rand.NewSource(3))
	snapG := c.NewSnapshot()
	snapR := c.NewSnapshot()
	for i := 0; i < 300; i++ {
		p := rng.Intn(2) == 1
		v := int64(rng.Intn(4))
		snapG.Present[in] = p
		snapG.Values[in] = v
		snapR.Present[in] = p
		snapR.Values[in] = v
		rg := g.Evaluate(snapG)
		rr := c.React(snapR)
		if len(rg.Emitted) != len(rr.Emitted) {
			t.Fatalf("iter %d: emission mismatch", i)
		}
		snapG.State = rg.NextState
		snapR.State = rr.NextState
		for _, sv := range c.States {
			if snapG.State[sv] != snapR.State[sv] {
				t.Fatalf("iter %d: state %s diverged", i, sv.Name)
			}
		}
	}
}

func TestMultiAwaitStates(t *testing.T) {
	src := `
module handshake:
input req; input ack;
output grant; output done;
loop
  await req;
  emit grant;
  await ack;
  emit done;
end loop
end module
`
	c, sigs := MustCompile(src)
	// Two awaits -> pc with domain 2.
	var pc *cfsm.StateVar
	for _, sv := range c.States {
		if sv.Domain == 2 {
			pc = sv
		}
	}
	if pc == nil {
		t.Fatal("pc state variable missing")
	}
	snap := c.NewSnapshot()
	req, ack := sigs["req"], sigs["ack"]
	grant, done := sigs["grant"], sigs["done"]

	// ack while waiting for req: no reaction.
	snap.Present[ack] = true
	if r := c.React(snap); r.Fired {
		t.Error("ack in req-wait state must not fire")
	}
	// req: grant, advance.
	snap.Present = map[*cfsm.Signal]bool{req: true}
	r := c.React(snap)
	if !r.Fired || len(r.Emitted) != 1 || r.Emitted[0].Signal != grant {
		t.Fatalf("req reaction wrong: %+v", r)
	}
	snap.State = r.NextState
	// req again: ignored in ack-wait state.
	r = c.React(snap)
	if r.Fired {
		t.Error("req in ack-wait state must not fire")
	}
	// ack: done, back to start.
	snap.Present = map[*cfsm.Signal]bool{ack: true}
	r = c.React(snap)
	if !r.Fired || len(r.Emitted) != 1 || r.Emitted[0].Signal != done {
		t.Fatalf("ack reaction wrong: %+v", r)
	}
}

func TestNonLoopingModuleHalts(t *testing.T) {
	src := `
module oneshot:
input go;
output fired;
loop
  await go;
  emit fired;
end loop
end module
`
	c, sigs := MustCompile(src)
	// Single await inside a loop: no halt state, single control
	// state, hence no pc variable at all.
	if len(c.States) != 0 {
		t.Errorf("one-state machine should have no pc: %v", len(c.States))
	}
	snap := c.NewSnapshot()
	snap.Present[sigs["go"]] = true
	r := c.React(snap)
	if !r.Fired || len(r.Emitted) != 1 {
		t.Fatalf("reaction: %+v", r)
	}

	src2 := `
module once:
input go;
output fired;
await go;
emit fired;
await go;
end module
`
	c2, sigs2 := MustCompile(src2)
	// Two awaits + reachable halt: domain 3.
	var pc *cfsm.StateVar
	for _, sv := range c2.States {
		if sv.Domain == 3 {
			pc = sv
		}
	}
	if pc == nil {
		t.Fatalf("expected a 3-state pc, states: %+v", c2.States)
	}
	snap2 := c2.NewSnapshot()
	snap2.Present[sigs2["go"]] = true
	r1 := c2.React(snap2)
	if !r1.Fired || len(r1.Emitted) != 1 {
		t.Fatal("first go must emit")
	}
	snap2.State = r1.NextState
	r2 := c2.React(snap2)
	if !r2.Fired || len(r2.Emitted) != 0 {
		t.Fatal("second go must only advance to halt")
	}
	snap2.State = r2.NextState
	r3 := c2.React(snap2)
	if r3.Fired {
		t.Error("halted module must not react")
	}
}

func TestPresenceConditional(t *testing.T) {
	src := `
module sel:
input tick; input mode;
output fast; output slow;
loop
  await tick;
  if present mode then
    emit fast;
  else
    emit slow;
  end if
end loop
end module
`
	c, sigs := MustCompile(src)
	snap := c.NewSnapshot()
	snap.Present[sigs["tick"]] = true
	r := c.React(snap)
	if len(r.Emitted) != 1 || r.Emitted[0].Signal != sigs["slow"] {
		t.Fatalf("without mode: %+v", r.Emitted)
	}
	snap.Present[sigs["mode"]] = true
	r = c.React(snap)
	if len(r.Emitted) != 1 || r.Emitted[0].Signal != sigs["fast"] {
		t.Fatalf("with mode: %+v", r.Emitted)
	}
}

func TestInstantaneousLoopRejected(t *testing.T) {
	src := `
module bad:
input x;
var a : integer in
await x;
loop
  a := a + 1;
end loop
end var
end module
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compile(m); err == nil {
		t.Error("instantaneous loop must be rejected")
	} else if !strings.Contains(err.Error(), "instantaneous") {
		t.Errorf("wrong error: %v", err)
	}
}

func TestInitialAssignmentsFold(t *testing.T) {
	src := `
module init:
input t;
output o : integer;
var a : integer in
a := 7;
loop
  await t;
  emit o(a);
end loop
end var
end module
`
	c, sigs := MustCompile(src)
	snap := c.NewSnapshot()
	snap.Present[sigs["t"]] = true
	r := c.React(snap)
	if len(r.Emitted) != 1 || r.Emitted[0].Value != 7 {
		t.Fatalf("initial fold failed: %+v", r.Emitted)
	}
	// Declaration-site initialisation also works.
	src2 := strings.Replace(src, "var a : integer in\na := 7;", "var a := 9 : integer in", 1)
	c2, sigs2 := MustCompile(src2)
	snap2 := c2.NewSnapshot()
	snap2.Present[sigs2["t"]] = true
	r2 := c2.React(snap2)
	if len(r2.Emitted) != 1 || r2.Emitted[0].Value != 9 {
		t.Fatalf("decl-site init failed: %+v", r2.Emitted)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module x",                      // missing colon
		"module x: inputy;",             // garbage declaration
		"module x: await y; end module", // await of undeclared signal is a compile error, not parse
		"module x: input a; loop await a; end module",
		"module x: input a; if a then end module",
	}
	for i, src := range cases {
		m, err := Parse(src)
		if err != nil {
			continue // parse error, fine
		}
		if _, _, err := Compile(m); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}

func TestExpressionParsing(t *testing.T) {
	src := `
module ex:
input v : integer;
output o : integer;
var a : integer in
loop
  await v;
  if (a + 1) * 2 <= ?v and not (a = 3) then
    a := a + 1;
    emit o(a * 10 - 1);
  end if
end loop
end var
end module
`
	c, sigs := MustCompile(src)
	snap := c.NewSnapshot()
	snap.Present[sigs["v"]] = true
	snap.Values[sigs["v"]] = 100
	r := c.React(snap)
	if len(r.Emitted) != 1 || r.Emitted[0].Value != 9 {
		t.Fatalf("expression evaluation wrong: %+v", r.Emitted)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	c1, _ := MustCompile(fig1)
	c2, _ := MustCompile(fig1)
	if len(c1.Trans) != len(c2.Trans) || len(c1.Tests) != len(c2.Tests) {
		t.Error("compilation must be deterministic")
	}
	_ = expr.C(0)
}

const twoModuleProgram = `
% A two-module system: a pulse divider feeding a toggler.
module divider:
input tick;
output half;
var odd : integer in
loop
  await tick;
  if odd = 0 then
    odd := 1;
  else
    odd := 0;
    emit half;
  end if
end loop
end var
end module

module toggler:
input half;
output led : integer;
var on : integer in
loop
  await half;
  if on = 0 then on := 1; else on := 0; end if
  emit led(on);
end loop
end var
end module
`

func TestParseProgram(t *testing.T) {
	mods, err := ParseProgram(twoModuleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 || mods[0].Name != "divider" || mods[1].Name != "toggler" {
		t.Fatalf("modules: %+v", mods)
	}
}

func TestCompileProgramNetwork(t *testing.T) {
	n, machines, err := CompileProgram(twoModuleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Machines) != 2 {
		t.Fatalf("machines: %d", len(n.Machines))
	}
	// "half" connects the modules.
	if got := n.InternalSignals(); len(got) != 1 || got[0].Name != "half" {
		t.Errorf("internal signals: %v", got)
	}
	if got := n.PrimaryInputs(); len(got) != 1 || got[0].Name != "tick" {
		t.Errorf("primary inputs: %v", got)
	}
	if _, err := n.TopoOrder(); err != nil {
		t.Fatal(err)
	}

	// Semantics: four ticks flip the led once on, once... The divider
	// emits half every 2 ticks; the toggler alternates led 1,0,...
	div := machines["divider"]
	tog := machines["toggler"]
	var tick, half *cfsm.Signal
	for _, s := range n.Signals {
		switch s.Name {
		case "tick":
			tick = s
		case "half":
			half = s
		}
	}
	snapD := div.NewSnapshot()
	snapT := tog.NewSnapshot()
	var ledVals []int64
	for i := 0; i < 8; i++ {
		snapD.Present = map[*cfsm.Signal]bool{tick: true}
		rd := div.React(snapD)
		snapD.State = rd.NextState
		for _, em := range rd.Emitted {
			if em.Signal == half {
				snapT.Present = map[*cfsm.Signal]bool{half: true}
				rt := tog.React(snapT)
				snapT.State = rt.NextState
				for _, emt := range rt.Emitted {
					ledVals = append(ledVals, emt.Value)
				}
			}
		}
	}
	want := []int64{1, 0, 1, 0}
	if len(ledVals) != len(want) {
		t.Fatalf("led emissions: %v", ledVals)
	}
	for i := range want {
		if ledVals[i] != want[i] {
			t.Fatalf("led sequence %v, want %v", ledVals, want)
		}
	}
}

func TestCompileProgramTypeClash(t *testing.T) {
	src := `
module a:
output s;
loop await s; end loop
end module
module b:
input s : integer;
loop await s; end loop
end module
`
	// Module a awaits its own output, which is also invalid — craft a
	// minimal clash instead: s pure in a, valued in b.
	src = `
module a:
input t;
output s;
loop await t; emit s; end loop
end module
module b:
input s : integer;
output u;
loop await s; emit u; end loop
end module
`
	if _, _, err := CompileProgram(src); err == nil {
		t.Error("pure/valued signal clash must be rejected")
	}
}

func TestCompileProgramSingleModule(t *testing.T) {
	n, machines, err := CompileProgram(fig1)
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 1 || len(n.Machines) != 1 {
		t.Fatal("single module program")
	}
	if n.Name != "simple" {
		t.Errorf("network name %q", n.Name)
	}
}

func TestRepeatUnrolls(t *testing.T) {
	src := `
module blink3:
input go; input tick;
output on; output done;
loop
  await go;
  repeat 3 times
    await tick;
    emit on;
  end repeat
  emit done;
end loop
end module
`
	c, sigs := MustCompile(src)
	// States: await go + 3 unrolled await ticks = 4.
	var pc *cfsm.StateVar
	for _, sv := range c.States {
		pc = sv
	}
	if pc == nil || pc.Domain != 4 {
		t.Fatalf("expected a 4-state pc, got %+v", c.States)
	}
	snap := c.NewSnapshot()
	snap.Present[sigs["go"]] = true
	r := c.React(snap)
	if !r.Fired {
		t.Fatal("go must fire")
	}
	snap.State = r.NextState
	snap.Present = map[*cfsm.Signal]bool{sigs["tick"]: true}
	ons, dones := 0, 0
	for i := 0; i < 3; i++ {
		r = c.React(snap)
		snap.State = r.NextState
		for _, em := range r.Emitted {
			switch em.Signal {
			case sigs["on"]:
				ons++
			case sigs["done"]:
				dones++
			}
		}
	}
	if ons != 3 || dones != 1 {
		t.Errorf("on=%d done=%d, want 3/1", ons, dones)
	}
}

func TestRepeatCountValidation(t *testing.T) {
	src := `
module bad:
input t;
repeat 0 times await t; end repeat
end module
`
	if _, err := Parse(src); err == nil {
		t.Error("repeat 0 must be rejected")
	}
}

// TestCompileSizeBudget: sources whose compiled form grows
// multiplicatively with their length stop at MaxCompileSize with a
// *SizeError, quickly, while a nest well inside the budget compiles.
func TestCompileSizeBudget(t *testing.T) {
	nest := func(depth int, body string) string {
		for i := 0; i < depth; i++ {
			body = "repeat 24 times " + body + " end repeat"
		}
		return body
	}
	module := func(body string) string {
		return "module big: input t; output o; var x : integer in\nloop await t; " + body + " end loop\nend var end module"
	}
	ifs := "" // 2^20 paths from one await
	for i := 1; i <= 20; i++ {
		ifs += fmt.Sprintf("if x = %d then emit o; end if ", i)
	}
	for name, src := range map[string]string{
		"repeat nest depth 4": module(nest(4, "await t; emit o;")),
		"empty repeat nest":   module("emit o; " + nest(6, "nothing;")),
		"sequential ifs":      module(ifs),
		"chained assignments": module("repeat 64 times x := x + x; end repeat emit o;"),
		"long assignment run": module("repeat 1024 times repeat 30 times x := " +
			strings.Repeat("1 + ", 50) + "1; end repeat end repeat emit o;"),
	} {
		start := time.Now()
		_, _, err := CompileProgram(src)
		var se *SizeError
		if !errors.As(err, &se) || se.Module != "big" {
			t.Errorf("%s: want a *SizeError for module big, got %v", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: took %v to fail", name, d)
		}
	}
	net, _, err := CompileProgram(module(nest(2, "await t; emit o;")))
	if err != nil {
		t.Fatalf("repeat nest depth 2: %v", err)
	}
	if n := len(net.Machines[0].Trans); n != 577 {
		t.Errorf("repeat nest depth 2: %d transitions, want 577", n)
	}
}
