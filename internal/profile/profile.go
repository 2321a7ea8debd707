// Package profile collects and aggregates execution profiles from
// co-simulation campaigns. A Collector attaches to the RTOS probe
// stream (rtos.Probe) and records, per module, how often each full
// test-outcome vector occurred and how the module's reactions fired —
// the behavioural evidence the profile-guided specialization pass
// (sgraph.Specialize) uses to put hot outcomes on fall-through arcs.
// Profiles serialise to JSON so a long capture run and the synthesis
// run that consumes it can be separate processes (polisc -profile).
package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"polis/internal/cfsm"
	"polis/internal/rtos"
	"polis/internal/sgraph"
)

// ModuleProfile is the aggregate for one module (CFSM), keyed by the
// outcome-vector encoding of sgraph.OutcomeKey over TestNames order.
type ModuleProfile struct {
	Module    string           `json:"module"`
	TestNames []string         `json:"tests"`
	Outcomes  map[string]int64 `json:"outcomes"`
	Reactions int64            `json:"reactions"`
	Fired     int64            `json:"fired"`
	Cycles    int64            `json:"cycles"`
}

// Spec converts the aggregate into the decoupled shape the sgraph
// specialization pass consumes. Returns nil when there is nothing to
// specialize on.
func (m *ModuleProfile) Spec() *sgraph.SpecializeProfile {
	if m == nil || len(m.Outcomes) == 0 {
		return nil
	}
	return &sgraph.SpecializeProfile{TestNames: m.TestNames, Outcomes: m.Outcomes}
}

// Fingerprint returns a stable content hash of the profile evidence,
// used to key synthesis caches: two captures that would drive the
// specialization pass identically hash identically, regardless of map
// iteration order.
func (m *ModuleProfile) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "module %s\n", m.Module)
	for _, t := range m.TestNames {
		fmt.Fprintf(h, "test %s\n", t)
	}
	keys := make([]string, 0, len(m.Outcomes))
	for k := range m.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "outcome %s=%d\n", k, m.Outcomes[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Profile is a campaign-wide execution profile, one aggregate per
// module name.
type Profile struct {
	Modules map[string]*ModuleProfile `json:"modules"`
}

// Module returns the aggregate for a module name, nil-safe.
func (p *Profile) Module(name string) *ModuleProfile {
	if p == nil {
		return nil
	}
	return p.Modules[name]
}

// WriteJSON serialises the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON deserialises a profile written by WriteJSON. A module
// entry that is null is an error: WriteJSON never writes one, and
// Fingerprint needs every entry.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	for name, m := range p.Modules {
		if m == nil {
			return nil, fmt.Errorf("profile: module %q has no entry", name)
		}
	}
	return &p, nil
}

// Load reads a profile from a JSON file.
func Load(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}

// Save writes the profile to a JSON file.
func (p *Profile) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Collector implements rtos.Probe and aggregates the stream into a
// Profile. Attaching a probe makes the runtime materialise map-based
// snapshots, so collection costs allocations by design — profiles are
// captured on dedicated runs, not in the zero-alloc hot path. The
// collector is safe for concurrent probes (one RTOS per partition
// island would otherwise race on the shared aggregates).
type Collector struct {
	mu      sync.Mutex
	modules map[string]*ModuleProfile
	vec     []int // scratch outcome vector
}

var _ rtos.Probe = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{modules: make(map[string]*ModuleProfile)}
}

// TaskPosted is part of rtos.Probe; deliveries carry no outcome
// information, so it is a no-op.
func (c *Collector) TaskPosted(t *rtos.Task, sig *cfsm.Signal, val int64, now int64, env bool) {}

// TaskBegan records the full test-outcome vector of the frozen
// snapshot the execution will react under.
func (c *Collector) TaskBegan(t *rtos.Task, snap cfsm.Snapshot, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.moduleLocked(t.M)
	if cap(c.vec) < len(t.M.Tests) {
		c.vec = make([]int, len(t.M.Tests))
	}
	vec := c.vec[:len(t.M.Tests)]
	for i, test := range t.M.Tests {
		vec[i] = snap.EvalTest(test)
	}
	m.Outcomes[sgraph.OutcomeKey(vec)]++
}

// TaskFinished accumulates reaction counts and execution cycles.
func (c *Collector) TaskFinished(t *rtos.Task, r cfsm.Reaction, cycles int64, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.moduleLocked(t.M)
	m.Reactions++
	if r.Fired {
		m.Fired++
	}
	m.Cycles += cycles
}

func (c *Collector) moduleLocked(cf *cfsm.CFSM) *ModuleProfile {
	m := c.modules[cf.Name]
	if m == nil {
		names := make([]string, len(cf.Tests))
		for i, t := range cf.Tests {
			names[i] = t.Name()
		}
		m = &ModuleProfile{
			Module:    cf.Name,
			TestNames: names,
			Outcomes:  make(map[string]int64),
		}
		c.modules[cf.Name] = m
	}
	return m
}

// Profile returns a deep copy of the aggregates collected so far, so
// the caller can keep simulating while consuming a stable snapshot.
func (c *Collector) Profile() *Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{Modules: make(map[string]*ModuleProfile, len(c.modules))}
	for name, m := range c.modules {
		cp := &ModuleProfile{
			Module:    m.Module,
			TestNames: append([]string(nil), m.TestNames...),
			Outcomes:  make(map[string]int64, len(m.Outcomes)),
			Reactions: m.Reactions,
			Fired:     m.Fired,
			Cycles:    m.Cycles,
		}
		for k, v := range m.Outcomes {
			cp.Outcomes[k] = v
		}
		p.Modules[name] = cp
	}
	return p
}
