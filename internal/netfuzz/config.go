// Package netfuzz is a network-scale co-simulation fuzz harness with
// fault injection. It generates random GALS networks (internal/randcfsm
// topologies), drives them with randomized stimulus timelines through
// sim.Run in both Behavioral and VMExact modes, and checks invariants
// after every run:
//
//   - the object code agrees with the reference interpreter on every
//     frozen snapshot (sim.CheckOptions.VMAgainstReference),
//   - exact VM cycles stay inside the analyzer's path bounds and under
//     the estimator's worst case (sim.CheckOptions.CycleBounds),
//   - the RTOS one-place-buffer bookkeeping matches an independent
//     redundant model replayed from the raw probe stream (Model), so
//     overwrites are accounted as legal event loss, never silently,
//   - when a run is observed to be serialized (every environment
//     stimulus hit a quiescent system) and free of contention, loss
//     and poll drops, the two modes' per-signal output traces and
//     final states must agree exactly.
//
// Every run is reproducible from (seed, Config): generation uses only
// seeded rand streams and slice-ordered iteration. Failures shrink to
// a minimal configuration and print a replay line for `polisc fuzz`.
package netfuzz

import (
	"fmt"
	"strconv"
	"strings"

	"polis/internal/names"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
)

// Fault is a bitmask of enabled fault injectors. Faults mutate the
// stimulus timeline (and horizon) before the run; both modes see the
// identical mutated timeline, so faults probe the semantics, not the
// generator.
type Fault uint

// Fault injectors.
const (
	// FaultDrop removes random stimuli from the timeline.
	FaultDrop Fault = 1 << iota
	// FaultJitter perturbs stimulus arrival times, pushing them into
	// the freeze windows of running cascades.
	FaultJitter
	// FaultBurst duplicates stimuli back-to-back with fresh values,
	// forcing one-place-buffer overwrites.
	FaultBurst
	// FaultTruncate cuts the horizon short, ending the run with work
	// in flight.
	FaultTruncate

	faultAll = FaultDrop | FaultJitter | FaultBurst | FaultTruncate
)

var faultNames = []struct {
	bit  Fault
	name string
}{
	{FaultDrop, "drop"},
	{FaultJitter, "jitter"},
	{FaultBurst, "burst"},
	{FaultTruncate, "truncate"},
}

func (f Fault) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range faultNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, "|")
}

func parseFaults(s string) (Fault, error) {
	if s == "none" || s == "" {
		return 0, nil
	}
	var f Fault
	for _, p := range strings.Split(s, "|") {
		found := false
		for _, fn := range faultNames {
			if p == fn.name {
				f |= fn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("netfuzz: unknown fault %q", p)
		}
	}
	return f, nil
}

// Config describes one fuzz scenario. Together with a seed it fully
// determines the generated network, RTOS configuration and stimulus
// timeline.
type Config struct {
	Machines int               // network size
	Topology randcfsm.Topology // how machines are wired
	Stimuli  int               // environment events before faults
	Gap      int64             // nominal inter-stimulus spacing, cycles
	Horizon  int64             // simulation horizon; 0 derives Gap*(Stimuli+2)
	Policy   rtos.Policy       // scheduling discipline
	Preempt  bool              // preemptive scheduling (forces StaticPriority)
	Polling  bool              // some env signals delivered by polling
	HW       bool              // one machine moves to the hardware partition
	Chains   bool              // two software machines chained
	Reduce   bool              // synthesize with s-graph reduction
	Storm    bool              // same-cycle duplicate stimulus storms (batched delivery)
	// Specialize runs a behavioral profiling pre-run and synthesizes
	// both checked modes with profile-guided hot-path specialization,
	// so the differential invariants exercise reordered TEST layouts.
	Specialize bool
	Faults     Fault       // enabled fault injectors
	Mutant     rtos.Mutant // injected bad semantics (self-check only)
}

// DefaultConfig is the strict regime: a chain topology with spaced
// interrupt-delivered stimuli, where traces are expected to be
// mode-independent and the strict trace comparison usually applies.
func DefaultConfig() Config {
	return Config{
		Machines: 3,
		Topology: randcfsm.TopoChain,
		Stimuli:  12,
		Gap:      60_000,
	}
}

// mutantNames is the replay-line name table of the mutants, indexed
// by rtos.Mutant.
var mutantNames = []string{
	rtos.MutantNone:           "none",
	rtos.MutantLostUndercount: "lost",
	rtos.MutantStaleOverwrite: "stale",
	rtos.MutantConsumeUnfired: "consume",
}

func mutantName(m rtos.Mutant) string { return names.Name(mutantNames, m) }

func boolName(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// String encodes the config as a compact "k=v,..." line, the format
// Parse accepts and failure reports print for replay.
func (c Config) String() string {
	return fmt.Sprintf("n=%d,topo=%s,stim=%d,gap=%d,hz=%d,policy=%s,preempt=%s,poll=%s,hw=%s,chain=%s,reduce=%s,storm=%s,spec=%s,faults=%s,mutant=%s",
		c.Machines, c.Topology, c.Stimuli, c.Gap, c.Horizon, c.Policy.Name(),
		boolName(c.Preempt), boolName(c.Polling), boolName(c.HW), boolName(c.Chains),
		boolName(c.Reduce), boolName(c.Storm), boolName(c.Specialize),
		c.Faults, mutantName(c.Mutant))
}

// Parse decodes a Config from the String encoding. Unknown keys are
// errors; omitted keys keep the zero value.
func Parse(s string) (Config, error) {
	var c Config
	if strings.TrimSpace(s) == "" {
		return c, fmt.Errorf("netfuzz: empty config")
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("netfuzz: bad config entry %q", kv)
		}
		var err error
		switch k {
		case "n":
			c.Machines, err = strconv.Atoi(v)
		case "topo":
			c.Topology, err = randcfsm.ParseTopology(v)
		case "stim":
			c.Stimuli, err = strconv.Atoi(v)
		case "gap":
			c.Gap, err = strconv.ParseInt(v, 10, 64)
		case "hz":
			c.Horizon, err = strconv.ParseInt(v, 10, 64)
		case "policy":
			c.Policy, err = rtos.ParsePolicy(v)
		case "preempt":
			c.Preempt = v == "1"
		case "poll":
			c.Polling = v == "1"
		case "hw":
			c.HW = v == "1"
		case "chain":
			c.Chains = v == "1"
		case "reduce":
			c.Reduce = v == "1"
		case "storm":
			c.Storm = v == "1"
		case "spec":
			c.Specialize = v == "1"
		case "faults":
			c.Faults, err = parseFaults(v)
		case "mutant":
			if v != "" {
				c.Mutant, err = names.Parse[rtos.Mutant]("mutant", mutantNames, v)
			}
		default:
			err = fmt.Errorf("netfuzz: unknown config key %q", k)
		}
		if err != nil {
			return c, err
		}
	}
	return c.normalize()
}

// normalize enforces cross-field constraints instead of failing runs
// on invalid combinations the fuzzer itself composed.
func (c Config) normalize() (Config, error) {
	if c.Machines < 1 {
		return c, fmt.Errorf("netfuzz: need at least one machine")
	}
	if c.Stimuli < 1 {
		return c, fmt.Errorf("netfuzz: need at least one stimulus")
	}
	if c.Gap < 1 {
		return c, fmt.Errorf("netfuzz: gap must be positive")
	}
	if c.Preempt {
		c.Policy = rtos.StaticPriority // rtos.Validate requires it
	}
	return c, nil
}

// horizon resolves the effective horizon before fault injection.
func (c Config) horizon() int64 {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return c.Gap * int64(c.Stimuli+2)
}
