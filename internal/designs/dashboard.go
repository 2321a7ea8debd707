// Package designs provides the benchmark systems of the paper's
// experimental section: a car dashboard controller (the computational
// chain from the wheel and engine speed sensors to the pulse-width
// modulated outputs controlling the gauges, Section V-A) and a
// shock-absorber controller (Section V-B). The original Magneti
// Marelli specifications are proprietary; these are functionally
// equivalent controllers built from the behaviours the paper names,
// with module inventories sized like Table I's.
package designs

import (
	"polis/internal/cfsm"
	"polis/internal/expr"
)

// Dashboard bundles the dashboard network and handles to the signals
// experiments inject or observe.
type Dashboard struct {
	Net *cfsm.Network

	// Environment inputs.
	KeyOn      *cfsm.Signal
	KeyOff     *cfsm.Signal
	BeltOn     *cfsm.Signal
	Tick       *cfsm.Signal // 100 ms timebase
	WheelPulse *cfsm.Signal // valued: period of one wheel turn (ms)
	RPMPulse   *cfsm.Signal // valued: period of one crank turn (ms)
	FuelSample *cfsm.Signal // valued: tank level sample (percent)
	PWMClock   *cfsm.Signal // fast PWM timebase

	// Observable outputs.
	AlarmOn   *cfsm.Signal
	AlarmOff  *cfsm.Signal
	Speed     *cfsm.Signal
	SpeedDuty *cfsm.Signal
	OdoInc    *cfsm.Signal
	RPM       *cfsm.Signal
	RPMDuty   *cfsm.Signal
	OverRev   *cfsm.Signal
	FuelDuty  *cfsm.Signal
	LowFuel   *cfsm.Signal
	PWMPin    *cfsm.Signal

	// Internal signals the sub-experiments reuse.
	StartTimer *cfsm.Signal
	End5       *cfsm.Signal
	End10      *cfsm.Signal

	Belt      *cfsm.CFSM
	Timer     *cfsm.CFSM
	SpeedF    *cfsm.CFSM
	Odometer  *cfsm.CFSM
	SpeedDisp *cfsm.CFSM
	EngineMon *cfsm.CFSM
	TachoDisp *cfsm.CFSM
	Fuel      *cfsm.CFSM
	PWM       *cfsm.CFSM
}

// Modules lists the dashboard CFSMs in Table I order.
func (d *Dashboard) Modules() []*cfsm.CFSM {
	return []*cfsm.CFSM{
		d.Belt, d.Timer, d.SpeedF, d.Odometer, d.SpeedDisp,
		d.EngineMon, d.TachoDisp, d.Fuel, d.PWM,
	}
}

// NewDashboard builds the dashboard controller network.
func NewDashboard() *Dashboard {
	n := cfsm.NewNetwork("dashboard")
	d := &Dashboard{Net: n}

	d.KeyOn = n.NewSignal("key_on", true)
	d.KeyOff = n.NewSignal("key_off", true)
	d.BeltOn = n.NewSignal("belt_on", true)
	d.Tick = n.NewSignal("tick", true)
	d.WheelPulse = n.NewSignal("wheel_pulse", false)
	d.RPMPulse = n.NewSignal("rpm_pulse", false)
	d.FuelSample = n.NewSignal("fuel_sample", false)
	d.PWMClock = n.NewSignal("pwm_clock", true)

	d.AlarmOn = n.NewSignal("alarm_on", true)
	d.AlarmOff = n.NewSignal("alarm_off", true)
	d.Speed = n.NewSignal("speed", false)
	d.SpeedDuty = n.NewSignal("speed_duty", false)
	d.OdoInc = n.NewSignal("odo_inc", true)
	d.RPM = n.NewSignal("rpm", false)
	d.RPMDuty = n.NewSignal("rpm_duty", false)
	d.OverRev = n.NewSignal("overrev", true)
	d.FuelDuty = n.NewSignal("fuel_duty", false)
	d.LowFuel = n.NewSignal("low_fuel", true)
	d.PWMPin = n.NewSignal("pwm_pin", false)

	d.StartTimer = n.NewSignal("start_timer", true)
	d.End5 = n.NewSignal("end_5", true)
	d.End10 = n.NewSignal("end_10", true)

	d.Belt = beltCFSM(d)
	d.Timer = timerCFSM(d)
	d.SpeedF = speedFilterCFSM(d)
	d.Odometer = odometerCFSM(d)
	d.SpeedDisp = speedDisplayCFSM(d)
	d.EngineMon = engineMonCFSM(d)
	d.TachoDisp = tachoDisplayCFSM(d)
	d.Fuel = fuelCFSM(d)
	d.PWM = pwmCFSM(d)
	for _, m := range d.Modules() {
		if err := n.Add(m); err != nil {
			panic("designs: " + err.Error())
		}
	}
	if err := n.Validate(); err != nil {
		panic("designs: " + err.Error())
	}
	return d
}

// beltCFSM is the classical seat-belt alarm controller: when the key
// turns on, a timer starts; if the belt is not fastened within 5
// seconds the alarm sounds, and it stops after 10 more seconds, or
// when the belt is fastened or the key turned off.
func beltCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("belt")
	c.AttachInput(d.KeyOn)
	c.AttachInput(d.KeyOff)
	c.AttachInput(d.BeltOn)
	c.AttachInput(d.End5)
	c.AttachInput(d.End10)
	c.AttachOutput(d.StartTimer)
	c.AttachOutput(d.AlarmOn)
	c.AttachOutput(d.AlarmOff)

	// 0=off, 1=waiting, 2=alarm
	st := c.AddState("belt_st", 3, 0)
	sel := c.Sel(st)
	pKeyOn := c.Present(d.KeyOn)
	pKeyOff := c.Present(d.KeyOff)
	pBelt := c.Present(d.BeltOn)
	p5 := c.Present(d.End5)
	p10 := c.Present(d.End10)

	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(sel, 0), on(pKeyOn, 1)},
		c.Emit(d.StartTimer), c.Assign(st, expr.C(1)))
	// Waiting: key off or belt fastened cancels; end_5 raises alarm.
	c.AddTransition([]cfsm.Cond{on(sel, 1), on(pKeyOff, 1)},
		c.Assign(st, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(sel, 1), on(pKeyOff, 0), on(pBelt, 1)},
		c.Assign(st, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(sel, 1), on(pKeyOff, 0), on(pBelt, 0), on(p5, 1)},
		c.Emit(d.AlarmOn), c.Assign(st, expr.C(2)))
	// Alarming: any of key off, belt on, end_10 stops the alarm.
	c.AddTransition([]cfsm.Cond{on(sel, 2), on(pKeyOff, 1)},
		c.Emit(d.AlarmOff), c.Assign(st, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(sel, 2), on(pKeyOff, 0), on(pBelt, 1)},
		c.Emit(d.AlarmOff), c.Assign(st, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(sel, 2), on(pKeyOff, 0), on(pBelt, 0), on(p10, 1)},
		c.Emit(d.AlarmOff), c.Assign(st, expr.C(0)))
	return c
}

// timerCFSM counts 100 ms ticks after start_timer and emits end_5 at
// 5 s and end_10 at 15 s.
func timerCFSM(d *Dashboard) *cfsm.CFSM {
	return timerCFSMWith(d, d.StartTimer)
}

// timerCFSMWith lets the Table III sub-network trigger the timer from
// a primary input, which removes the belt->timer feedback edge and
// makes the sub-network synchronously composable.
func timerCFSMWith(d *Dashboard, start *cfsm.Signal) *cfsm.CFSM {
	c := cfsm.New("timer")
	c.AttachInput(start)
	c.AttachInput(d.Tick)
	c.AttachOutput(d.End5)
	c.AttachOutput(d.End10)

	counting := c.AddState("tmr_on", 2, 0)
	cnt := c.AddState("tmr_cnt", 0, 0)
	sel := c.Sel(counting)
	pStart := c.Present(start)
	pTick := c.Present(d.Tick)
	at50 := c.Pred(expr.Eq(expr.V("tmr_cnt"), expr.C(49)))
	at150 := c.Pred(expr.Eq(expr.V("tmr_cnt"), expr.C(149)))
	c.MarkExclusive(at50, at150)

	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(pStart, 1)},
		c.Assign(cnt, expr.C(0)), c.Assign(counting, expr.C(1)))
	c.AddTransition([]cfsm.Cond{on(pStart, 0), on(pTick, 1), on(sel, 1), on(at50, 1)},
		c.Emit(d.End5), c.Assign(cnt, expr.Add(expr.V("tmr_cnt"), expr.C(1))))
	c.AddTransition([]cfsm.Cond{on(pStart, 0), on(pTick, 1), on(sel, 1), on(at150, 1)},
		c.Emit(d.End10), c.Assign(counting, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(pStart, 0), on(pTick, 1), on(sel, 1), on(at50, 0), on(at150, 0)},
		c.Assign(cnt, expr.Add(expr.V("tmr_cnt"), expr.C(1))))
	return c
}

// speedFilterCFSM converts the wheel-pulse period (ms per revolution)
// into a speed value (km/h), with a two-sample smoothing filter: the
// data-dominated division the paper's estimation tables include.
func speedFilterCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("speed_filter")
	c.AttachInput(d.WheelPulse)
	c.AttachOutput(d.Speed)
	last := c.AddState("spd_last", 0, 0)
	p := c.Present(d.WheelPulse)
	// speed = 6480 / period(ms) for a 1.8 m wheel circumference;
	// smoothed = (last + raw) / 2.
	raw := expr.Div(expr.C(6480), expr.V("?wheel_pulse"))
	smooth := expr.Div(expr.Add(expr.V("spd_last"), raw), expr.C(2))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)},
		c.EmitV(d.Speed, smooth), c.Assign(last, smooth))
	return c
}

// odometerCFSM counts wheel pulses and emits odo_inc every 100
// revolutions (one tenth of a mile with the chosen wheel).
func odometerCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("odometer")
	c.AttachInput(d.WheelPulse)
	c.AttachOutput(d.OdoInc)
	cnt := c.AddState("odo_cnt", 0, 0)
	p := c.Present(d.WheelPulse)
	wrap := c.Pred(expr.Ge(expr.V("odo_cnt"), expr.C(99)))
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(p, 1), on(wrap, 1)},
		c.Emit(d.OdoInc), c.Assign(cnt, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(wrap, 0)},
		c.Assign(cnt, expr.Add(expr.V("odo_cnt"), expr.C(1))))
	return c
}

// speedDisplayCFSM maps a speed value onto the gauge duty cycle
// (0..255 for 0..220 km/h, clamped).
func speedDisplayCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("speedo")
	c.AttachInput(d.Speed)
	c.AttachOutput(d.SpeedDuty)
	p := c.Present(d.Speed)
	duty := expr.Div(expr.Mul(expr.Min(expr.V("?speed"), expr.C(220)), expr.C(255)), expr.C(220))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, c.EmitV(d.SpeedDuty, duty))
	return c
}

// engineMonCFSM converts crank-pulse periods to RPM and raises the
// over-rev alarm above 6500 rpm (with hysteresis through a state bit).
func engineMonCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("engine_mon")
	c.AttachInput(d.RPMPulse)
	c.AttachOutput(d.RPM)
	c.AttachOutput(d.OverRev)
	hot := c.AddState("eng_hot", 2, 0)
	p := c.Present(d.RPMPulse)
	sel := c.Sel(hot)
	rpm := expr.Div(expr.C(60000), expr.V("?rpm_pulse"))
	over := c.Pred(expr.Gt(rpm, expr.C(6500)))
	cool := c.Pred(expr.Lt(rpm, expr.C(6000)))
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 0), on(over, 1)},
		c.EmitV(d.RPM, rpm), c.Emit(d.OverRev), c.Assign(hot, expr.C(1)))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 0), on(over, 0)},
		c.EmitV(d.RPM, rpm))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 1), on(cool, 1)},
		c.EmitV(d.RPM, rpm), c.Assign(hot, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 1), on(cool, 0)},
		c.EmitV(d.RPM, rpm))
	return c
}

// tachoDisplayCFSM maps RPM onto the tachometer duty cycle.
func tachoDisplayCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("tacho")
	c.AttachInput(d.RPM)
	c.AttachOutput(d.RPMDuty)
	p := c.Present(d.RPM)
	duty := expr.Div(expr.Mul(expr.Min(expr.V("?rpm"), expr.C(8000)), expr.C(255)), expr.C(8000))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, c.EmitV(d.RPMDuty, duty))
	return c
}

// fuelCFSM low-pass filters tank samples, drives the fuel gauge and
// raises the low-fuel lamp under 10 percent (with hysteresis).
func fuelCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("fuel")
	c.AttachInput(d.FuelSample)
	c.AttachOutput(d.FuelDuty)
	c.AttachOutput(d.LowFuel)
	lvl := c.AddState("fuel_lvl", 0, 50)
	warned := c.AddState("fuel_warn", 2, 0)
	p := c.Present(d.FuelSample)
	sel := c.Sel(warned)
	filt := expr.Div(expr.Add(expr.Mul(expr.V("fuel_lvl"), expr.C(3)), expr.V("?fuel_sample")), expr.C(4))
	low := c.Pred(expr.Lt(filt, expr.C(10)))
	duty := expr.Div(expr.Mul(filt, expr.C(255)), expr.C(100))
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 0), on(low, 1)},
		c.EmitV(d.FuelDuty, duty), c.Emit(d.LowFuel), c.Assign(lvl, filt), c.Assign(warned, expr.C(1)))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 0), on(low, 0)},
		c.EmitV(d.FuelDuty, duty), c.Assign(lvl, filt))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 1), on(low, 0)},
		c.EmitV(d.FuelDuty, duty), c.Assign(lvl, filt), c.Assign(warned, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(p, 1), on(sel, 1), on(low, 1)},
		c.EmitV(d.FuelDuty, duty), c.Assign(lvl, filt))
	return c
}

// pwmCFSM generates the pulse-width modulated gauge drive: an 8-bit
// counter advanced by the PWM clock, compared against the latched
// duty value.
func pwmCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("pwm")
	c.AttachInput(d.SpeedDuty)
	c.AttachInput(d.PWMClock)
	c.AttachOutput(d.PWMPin)
	duty := c.AddState("pwm_duty", 0, 0)
	cnt := c.AddState("pwm_cnt", 0, 0)
	pDuty := c.Present(d.SpeedDuty)
	pClk := c.Present(d.PWMClock)
	nextCnt := expr.Mod(expr.Add(expr.V("pwm_cnt"), expr.C(1)), expr.C(256))
	below := c.Pred(expr.Lt(expr.V("pwm_cnt"), expr.V("pwm_duty")))
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(pDuty, 1)},
		c.Assign(duty, expr.V("?speed_duty")))
	c.AddTransition([]cfsm.Cond{on(pDuty, 0), on(pClk, 1), on(below, 1)},
		c.EmitV(d.PWMPin, expr.C(1)), c.Assign(cnt, nextCnt))
	c.AddTransition([]cfsm.Cond{on(pDuty, 0), on(pClk, 1), on(below, 0)},
		c.EmitV(d.PWMPin, expr.C(0)), c.Assign(cnt, nextCnt))
	return c
}

// BeltSubnet returns a three-machine sub-network (belt + timer +
// buzzer) for the Table III granularity comparison. The timer here
// starts directly on key_on, so the sub-network is acyclic and the
// synchronous single-FSM composition applies (the full dashboard's
// belt->timer feedback is a buffered GALS loop that the zero-delay
// product cannot express); the alarm events become internal signals
// consumed by the buzzer driver.
func BeltSubnet() (*cfsm.Network, *Dashboard) {
	d := &Dashboard{}
	n := cfsm.NewNetwork("belt_chain")
	d.Net = n
	d.KeyOn = n.NewSignal("key_on", true)
	d.KeyOff = n.NewSignal("key_off", true)
	d.BeltOn = n.NewSignal("belt_on", true)
	d.Tick = n.NewSignal("tick", true)
	d.AlarmOn = n.NewSignal("alarm_on", true)
	d.AlarmOff = n.NewSignal("alarm_off", true)
	d.StartTimer = n.NewSignal("start_timer", true) // belt output, unread here
	d.End5 = n.NewSignal("end_5", true)
	d.End10 = n.NewSignal("end_10", true)
	d.PWMPin = n.NewSignal("buzz", true)
	d.Belt = beltCFSM(d)
	d.Timer = timerCFSMWith(d, d.KeyOn)
	d.PWM = buzzerCFSM(d)
	for _, m := range []*cfsm.CFSM{d.Belt, d.Timer, d.PWM} {
		if err := n.Add(m); err != nil {
			panic(err)
		}
	}
	return n, d
}

// buzzerCFSM pulses the buzzer on every other tick while the alarm is
// active.
func buzzerCFSM(d *Dashboard) *cfsm.CFSM {
	c := cfsm.New("buzzer")
	c.AttachInput(d.AlarmOn)
	c.AttachInput(d.AlarmOff)
	c.AttachInput(d.Tick)
	c.AttachOutput(d.PWMPin)
	bz := c.AddState("bz_on", 2, 0)
	ph := c.AddState("bz_ph", 2, 0)
	pOn := c.Present(d.AlarmOn)
	pOff := c.Present(d.AlarmOff)
	pT := c.Present(d.Tick)
	selBz := c.Sel(bz)
	selPh := c.Sel(ph)
	on := cfsm.On
	c.AddTransition([]cfsm.Cond{on(pOn, 1)}, c.Assign(bz, expr.C(1)))
	c.AddTransition([]cfsm.Cond{on(pOn, 0), on(pOff, 1)}, c.Assign(bz, expr.C(0)))
	c.AddTransition([]cfsm.Cond{on(pOn, 0), on(pOff, 0), on(pT, 1), on(selBz, 1), on(selPh, 0)},
		c.Emit(d.PWMPin), c.Assign(ph, expr.C(1)))
	c.AddTransition([]cfsm.Cond{on(pOn, 0), on(pOff, 0), on(pT, 1), on(selBz, 1), on(selPh, 1)},
		c.Assign(ph, expr.C(0)))
	return c
}
