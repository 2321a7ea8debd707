package profile_test

import (
	"bytes"
	"testing"

	"polis/internal/designs"
	"polis/internal/profile"
	"polis/internal/sim"
)

// FuzzReadJSON: no input makes ReadJSON panic, and an accepted profile
// fingerprints and specializes without panicking, and survives
// WriteJSON then ReadJSON with every module's fingerprint unchanged.
func FuzzReadJSON(f *testing.F) {
	// A capture of the shock absorber design, as cfsmsim -profile-out
	// writes it.
	s := designs.NewShockAbsorber()
	col := profile.NewCollector()
	stimuli := sim.PeriodicStimuli(s.AccelSample, 1000, 4000, 100_000,
		func(i int) int64 { return int64(40 + (i%9)*9) })
	stimuli = append(stimuli, sim.PeriodicStimuli(s.Tick, 3000, 20_000, 100_000, nil)...)
	if _, err := sim.Run(s.Net, stimuli, 100_000, sim.Options{Probe: col}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Profile().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"modules":{"m":{"module":"m","tests":["present_c"],"outcomes":{"1":3,"0":2},"reactions":5}}}`))
	f.Add([]byte(`{"modules":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, m := range p.Modules {
			m.Spec()
		}
		var out bytes.Buffer
		if err := p.WriteJSON(&out); err != nil {
			t.Fatalf("writing an accepted profile: %v", err)
		}
		back, err := profile.ReadJSON(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted profile: %v", err)
		}
		for name, m := range p.Modules {
			if b := back.Module(name); b == nil || b.Fingerprint() != m.Fingerprint() {
				t.Fatalf("module %q: fingerprint changed across WriteJSON", name)
			}
		}
	})
}
