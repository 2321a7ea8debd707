package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/expr"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// TestCacheMemHit: the second run over identical modules and options
// hits in memory for every module.
func TestCacheMemHit(t *testing.T) {
	net := testNetwork(t, 21, 6)
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	cold, err := Run(net, Options{}, Config{Jobs: 2, Cache: cache, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, misses := cacheCounters(col); hits != 0 || misses != 6 {
		t.Fatalf("cold run: %d hits, %d misses; want 0/6", hits, misses)
	}
	warm, err := Run(net, Options{}, Config{Jobs: 2, Cache: cache, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if hits, diskHits, misses := cacheCounters(col); hits != 6 || diskHits != 0 || misses != 6 {
		t.Fatalf("warm run: %d hits (%d disk), %d misses; want 6 (0)/6", hits, diskHits, misses)
	}
	for i := range cold {
		if warm[i].C != cold[i].C || warm[i].CodeSize != cold[i].CodeSize {
			t.Errorf("module %s: cached artifact differs", cold[i].Module)
		}
		if warm[i].SGraph == nil {
			t.Errorf("module %s: memory hit should keep live handles", cold[i].Module)
		}
	}
}

// TestFingerprintSensitivity: the key must change whenever any
// artifact-influencing option or machine detail changes, and must be
// stable otherwise.
func TestFingerprintSensitivity(t *testing.T) {
	m := goodMachine("fp")
	base := Fingerprint(m, Options{})
	if base != Fingerprint(m, Options{}) {
		t.Fatal("fingerprint not stable across calls")
	}
	if base != Fingerprint(m, Options{Target: vm.HC11()}) {
		t.Error("explicit default target should not change the fingerprint")
	}
	// Every variant must differ from the base and from every other.
	keys := map[string]string{base: "base"}
	distinct := func(name, key string) {
		t.Helper()
		if other, dup := keys[key]; dup {
			t.Errorf("%s shares its fingerprint with %s", name, other)
		}
		keys[key] = name
	}
	for name, opt := range map[string]Options{
		"ordering":    {Ordering: sgraph.OrderNaive},
		"target":      {Target: vm.R3K()},
		"copies":      {Codegen: codegen.Options{OptimizeCopies: true}},
		"ifthreshold": {Codegen: codegen.Options{IfThreshold: 4}},
		"falsepaths":  {UseFalsePaths: true},
		"reduce":      {Reduce: true},
	} {
		distinct(name, Fingerprint(m, opt))
	}
	distinct("module name", Fingerprint(goodMachine("fp2"), Options{}))

	for name, shape := range map[string]fpShape{
		"shape":       {},
		"pure":        {impure: true},
		"init":        {init: 1},
		"domain":      {domain: 4},
		"exclusive":   {exclusive: true},
		"action":      {swapActions: true},
		"association": {rightAssoc: true},
		"boundary":    {names: [2]string{"a", "bc"}},
		// Wire requests may carry any bytes in a name; without length
		// prefixes these two would spell the same stream, the 0x02
		// inside one name reading as the Ref tag of the next.
		"ref boundary 1": {refs: [2]string{"x\x02y", "w"}},
		"ref boundary 2": {refs: [2]string{"x", "y\x02w"}},
	} {
		distinct(name, Fingerprint(fpMachine(shape), Options{}))
	}
}

// fpShape picks one variation of fpMachine; each field changes one
// key-relevant detail of the zero shape.
type fpShape struct {
	impure      bool      // input "ab" carries a value
	init        int64     // initial value of state "st"
	domain      int       // domain of "st" beyond 3
	exclusive   bool      // the two presence tests form an exclusivity group
	swapActions bool      // the transition assigns before it emits
	rightAssoc  bool      // emit x+(y+z) rather than (x+y)+z
	names       [2]string // input names, when not "ab","c"
	refs        [2]string // names of x and y in the emitted sum
}

func fpMachine(s fpShape) *cfsm.CFSM {
	c := cfsm.New("fp")
	n1, n2 := "ab", "c"
	if s.names != [2]string{} {
		n1, n2 = s.names[0], s.names[1]
	}
	in1 := c.AddInput(n1, !s.impure)
	in2 := c.AddInput(n2, true)
	out := c.AddOutput("o", false)
	st := c.AddState("st", 3+s.domain, s.init)
	x, y, z := expr.V("x"), expr.V("y"), expr.V("z")
	if s.refs != [2]string{} {
		x, y = expr.V(s.refs[0]), expr.V(s.refs[1])
	}
	sum := expr.Add(expr.Add(x, y), z)
	if s.rightAssoc {
		sum = expr.Add(x, expr.Add(y, z))
	}
	p1, p2 := c.Present(in1), c.Present(in2)
	acts := []*cfsm.Action{c.EmitV(out, sum), c.Assign(st, expr.C(1))}
	if s.swapActions {
		acts[0], acts[1] = acts[1], acts[0]
	}
	c.AddTransition([]cfsm.Cond{cfsm.On(p1, 1)}, acts...)
	c.AddTransition([]cfsm.Cond{cfsm.On(p1, 0), cfsm.On(p2, 1)}, c.Emit(out))
	if s.exclusive {
		c.Exclusive = append(c.Exclusive, []*cfsm.Test{p1, p2})
	}
	return c
}

// TestFingerprintStable pins the cache keys of the paper's 15 design
// modules, with and without the reduction engine: a change to the
// stream (or to the test, action and expression keys it takes from
// cfsm and expr) that is not a fingerprintVersion bump would silently
// orphan every disk entry, and fails here instead.
func TestFingerprintStable(t *testing.T) {
	if fingerprintVersion != 2 {
		t.Fatalf("fingerprintVersion %d: re-record the pinned keys", fingerprintVersion)
	}
	want := []struct{ name, plain, reduced string }{
		{"belt", "4fe0c3b0e49fa714819c667b05bda57de93ff46c7796040d5394ef1b3d019c9f", "dc1cde0eb49ea864312a5827df0a17dbcba4d334383340e2e5079ba5b1a3794e"},
		{"timer", "7fbd33ec98e75174dc99b4e1123eeebb72d858ae674ae0e5ed5a9ef0d430608b", "a9692c94d25e6f35dceb81ac2c1d7e2e5a7611af4f093d316a2439a9d8c61560"},
		{"speed_filter", "190969d73f336bbebd0c3e9f1259dd2784e6ac1b3bb3d3eef372874b898ea973", "cb5b566429be3a1e2cd6f8fdf8487096af121dc4376f5d690f7ca34093f19ef5"},
		{"odometer", "6021ea673721eac1aae3fae3d86878d2bf37e30b921f524f6f4e75d8fdde07b7", "15c317a3516aa4cd300bd0b26ec6161eea57241fc94bb4cd5dcb8c07671dcad8"},
		{"speedo", "13511d202d656c8636207364da2586e551c6611c4b419fdfe2ce6dbcce1f9623", "40cf1e46c816fff14cfe6c7f33d78b19cbe4ba810632159404205ce8913b697e"},
		{"engine_mon", "e41f22d2d1aa9ab477745b3fb195b218c2150dde9e069fe54f990832daa1b8b7", "9fd05e4e08a614a25de4a00f3ce14590f0c382761c5557063a46fe9cd64fc126"},
		{"tacho", "e9aa034d59aa4adb4e26419ede4e2fe38b1addce27c124c011e67d7040394d28", "7f4cc3ddbefe082fe689a556d4df9f5a88f0d91be91153edb3db48fdb2c07d2a"},
		{"fuel", "75d7561b854c620b9476acf3d97154457acb21e31c82e472c4f1a53ab930ccbd", "b68273bbee37b3a0ae7f55fc1d8a4f2d54681f83d4376ca7a6e197cdb5036548"},
		{"pwm", "2615e0531f720fc11510923bc72d5a3866d1bd251f9264c42b29c8ed48aee095", "7820b2473ff647588c802e24d50c4f86b4e33c9e6a731801272cda3d89b08945"},
		{"accel_filter", "c66924bdf4649fff36c8e4283914a4d47671eea16c76a5b1e88700e150962b54", "0c7b829e8612a3a5d9b02b5faa7dcadc4e92093d5aaacee128c6e737f1779806"},
		{"road_estimator", "a4c0caba7f1945edf51c6acba7fc878671ce8d7f7cead8558c1c65ead521e322", "0828f105ec78456311dcefff96a5cc740257e090872275c92a5798ef1927eb12"},
		{"mode_logic", "a46effa150a2d1e4e98c8173976f59d5a67c99d6309bc651736bf24010ba5440", "3c967fc7a9feb6f7ae323387921b44858776684830925dba0efa488e11f4a712"},
		{"actuator", "0db49f636f79fc85f48d4996fc9ea421c2a47ed345b2cfa61a01a669abd5948b", "7d604f30f9e549c9cb129741e5c838884f14291886b4d61da5ace37705af0fc0"},
		{"watchdog", "5d9f206f55ac2c12724d7169c0c2b65dc2b0422ff926f408ca431d5bfdf324b3", "f81c53963366facaeb4ad84b80552f2964f362d431623b6aede2ee2d16c10944"},
		{"diag", "6c1d431ed907598a42295d1dd50b770f8d0bab4e4bf4de05c9a55317ab69a812", "fd0fcb0aa17f57a7c7460dda752cbcbe4fa140a29204803acf12b07054df2dfe"},
	}
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	if len(ms) != len(want) {
		t.Fatalf("%d design modules, %d pinned", len(ms), len(want))
	}
	for i, m := range ms {
		w := want[i]
		if m.Name != w.name {
			t.Fatalf("module %d is %s, pinned %s", i, m.Name, w.name)
		}
		if got := Fingerprint(m, Options{}); got != w.plain {
			t.Errorf("%s: Options{} key %s, pinned %s", m.Name, got, w.plain)
		}
		if got := Fingerprint(m, Options{Reduce: true}); got != w.reduced {
			t.Errorf("%s: Options{Reduce: true} key %s, pinned %s", m.Name, got, w.reduced)
		}
	}
}

// TestFingerprintAllocs pins the key's cost: the stream is built in a
// stack buffer and only the hex key is allocated, so a formatting
// path creeping back in fails here.
func TestFingerprintAllocs(t *testing.T) {
	for _, m := range testNetwork(t, 3, 8).Machines {
		if n := testing.AllocsPerRun(50, func() { Fingerprint(m, Options{Reduce: true}) }); n > 2 {
			t.Errorf("module %s: Fingerprint makes %.0f allocations, want <= 2", m.Name, n)
		}
	}
}

// BenchmarkFingerprint measures the cache key of one random module,
// cycling over a 16-module network.
func BenchmarkFingerprint(b *testing.B) {
	machines := testNetwork(b, 42, 16).Machines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = Fingerprint(machines[i%len(machines)], Options{Reduce: true})
	}
}

var fpSink string

// TestDiskCacheRoundTrip: a fresh process (fresh in-memory layer) is
// served from disk, with the serialisable payload intact.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	net := testNetwork(t, 33, 4)

	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(net, Options{}, Config{Jobs: 2, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(dir) // fresh memory, same directory
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	warm, err := Run(net, Options{}, Config{Jobs: 2, Cache: c2, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if hits, diskHits, _ := cacheCounters(col); hits != 4 || diskHits != 4 {
		t.Fatalf("want 4 disk hits, got %d hits (%d disk)", hits, diskHits)
	}
	for i := range cold {
		a, b := cold[i], warm[i]
		if a.C != b.C || a.Listing != b.Listing || a.CodeSize != b.CodeSize ||
			a.Estimate != b.Estimate || a.Measured != b.Measured || a.Stats != b.Stats ||
			a.NumTests != b.NumTests || a.NumActions != b.NumActions || a.NumTrans != b.NumTrans {
			t.Errorf("module %s: disk round-trip altered the artifact", a.Module)
		}
		if b.SGraph != nil || b.Program != nil || b.CFSM != nil {
			t.Errorf("module %s: disk hit should have nil live handles", a.Module)
		}
	}
}

// TestDiskHitAllocs gates the allocations of one disk hit on a fresh
// Cache: the entry's path, the read and the decode, and the store
// into the memory layer. The ceiling is the count measured when the
// read went through four system calls and the decoder stopped copying
// the entry's strings out of the read buffer (Go 1.24, linux/amd64).
func TestDiskHitAllocs(t *testing.T) {
	if raceBuild || bddDebugBuild {
		t.Skip("allocation counts differ under the race detector and the bdddebug tag")
	}
	const ceiling = 6
	dir := t.TempDir()
	m := goodMachine("allocs")
	warm, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunModules([]*cfsm.CFSM{m}, Options{}, Config{Jobs: 1, Cache: warm}); err != nil {
		t.Fatal(err)
	}
	key := Fingerprint(m, Options{})
	// AllocsPerRun calls the function runs+1 times; each call gets a
	// cache of its own, opened beforehand, so every call is a disk hit.
	const runs = 20
	fresh := make([]*Cache, runs+1)
	for i := range fresh {
		if fresh[i], err = NewCache(dir); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(runs, func() {
		c := fresh[0]
		fresh = fresh[1:]
		if _, fromDisk, ok := c.Get(key); !ok || !fromDisk {
			t.Fatalf("want a disk hit, got ok=%v fromDisk=%v", ok, fromDisk)
		}
	})
	if n > ceiling {
		t.Errorf("disk hit: %v allocations, ceiling %v", n, ceiling)
	}
}

// TestDiskCacheCorruption: corrupted or wrong-schema entries fall back
// to a recompile instead of failing the run.
func TestDiskCacheCorruption(t *testing.T) {
	dir := t.TempDir()
	net := testNetwork(t, 55, 3)

	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(net, Options{}, Config{Jobs: 1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("want 3 cache files, got %d", len(entries))
	}
	// Corrupt one entry with garbage, one with valid JSON of the wrong
	// schema, and truncate the third.
	damage := [][]byte{
		[]byte("not json at all \x00\x01"),
		[]byte(`{"Schema": 999, "Module": "x"}`),
		nil,
	}
	for i, e := range entries {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), damage[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	warm, err := Run(net, Options{}, Config{Jobs: 1, Cache: c2, Trace: col})
	if err != nil {
		t.Fatalf("corrupted cache must recompile, not fail: %v", err)
	}
	if hits, _, misses := cacheCounters(col); hits != 0 || misses != 3 {
		t.Errorf("corrupted entries should all miss: %d hits, %d misses", hits, misses)
	}
	for i := range cold {
		if warm[i].C != cold[i].C || warm[i].CodeSize != cold[i].CodeSize {
			t.Errorf("module %s: recompiled artifact differs", cold[i].Module)
		}
	}
	// The recompile repaired the damaged entries.
	c3, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	col3 := NewCollector()
	if _, err := Run(net, Options{}, Config{Jobs: 1, Cache: c3, Trace: col3}); err != nil {
		t.Fatal(err)
	}
	if hits, diskHits, _ := cacheCounters(col3); hits != 3 || diskHits != 3 {
		t.Errorf("after repair want 3 disk hits, got %d (%d disk)", hits, diskHits)
	}
}

// TestDiskCacheTruncatedMidWrite: an artifact file cut off mid-write
// (a crash between the first byte and the last) is a miss, counted as
// corrupt, recompiled, and overwritten with a good entry.
func TestDiskCacheTruncatedMidWrite(t *testing.T) {
	dir := t.TempDir()
	m := goodMachine("trunc")
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunModules([]*cfsm.CFSM{m}, Options{}, Config{Jobs: 1, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want 1 cache file, got %d", len(entries))
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-way: a valid prefix cut inside the entry.
	if err := os.Truncate(path, int64(len(data)/2)); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Get(Fingerprint(m, Options{})); ok {
		t.Fatal("truncated entry must be a miss, not a hit")
	}
	st := c2.Stats()
	if st.CorruptMisses != 1 || st.Misses != 1 {
		t.Errorf("want 1 corrupt miss, got %+v", st)
	}
	// The recompile overwrites the truncated file with a good entry.
	warm, err := RunModules([]*cfsm.CFSM{m}, Options{}, Config{Jobs: 1, Cache: c2})
	if err != nil {
		t.Fatalf("truncated cache must recompile, not fail: %v", err)
	}
	if warm[0].C != cold[0].C {
		t.Error("recompiled artifact differs")
	}
	c3, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, fromDisk, ok := c3.Get(Fingerprint(m, Options{})); !ok || !fromDisk {
		t.Errorf("repaired entry should hit from disk: ok=%v fromDisk=%v", ok, fromDisk)
	}
	if st := c3.Stats(); st.CorruptMisses != 0 {
		t.Errorf("repaired entry still counted corrupt: %+v", st)
	}
}

// TestCachePublishRace: several Cache instances sharing one directory
// (as shard-worker processes sharing the shuffle layer do) race Put
// on the same fingerprint while a reader polls the published path.
// Every state the published file is ever observed in must be one of
// the complete candidate serialisations — never a torn mix, never a
// truncated prefix. The fixed per-key ".tmp" publish path this pins
// against shares one temp inode between the writers, so a rename can
// publish a file another writer is still truncating or writing; the
// multi-megabyte payloads keep each write long enough to be preempted
// mid-syscall, which is when the reader catches the torn state.
func TestCachePublishRace(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 32) // fingerprint-shaped, path-safe
	const writers = 4
	const putsPerWriter = 40

	caches := make([]*Cache, writers)
	arts := make([]*Artifact, writers)
	goods := make([][]byte, writers)
	for i := range caches {
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
		arts[i] = &Artifact{Module: "race", C: strings.Repeat(string(rune('A'+i)), 4<<20)}
		// The only valid on-disk states are the exact serialisations Put
		// produces for the candidates; byte equality keeps the reader's
		// validation loop fast enough to sample mid-write states.
		goods[i] = encodeEntry(arts[i])
	}
	valid := func(data []byte) bool {
		for _, g := range goods {
			if bytes.Equal(data, g) {
				return true
			}
		}
		return false
	}

	// The reader races the writers: with an atomic publish it can only
	// ever observe no file or a complete artifact.
	published := filepath.Join(dir, key+".bin")
	stop := make(chan struct{})
	torn := make(chan int, 1)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(published)
			if err == nil && !valid(data) {
				select {
				case torn <- len(data):
				default:
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < putsPerWriter; n++ {
				caches[i].Put(key, arts[i])
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case n := <-torn:
		t.Fatalf("reader observed a torn published artifact (%d bytes)", n)
	default:
	}
	data, err := os.ReadFile(published)
	if err != nil {
		t.Fatalf("published file unreadable: %v", err)
	}
	if !valid(data) {
		t.Fatalf("torn artifact at rest (%d bytes)", len(data))
	}

	// A fresh process round-trips whichever writer won, cleanly.
	c3, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, fromDisk, ok := c3.Get(key)
	if !ok || !fromDisk {
		t.Fatalf("published artifact must hit from disk: ok=%v fromDisk=%v", ok, fromDisk)
	}
	found := false
	for _, art := range arts {
		if a.C == art.C {
			found = true
		}
	}
	if !found {
		t.Error("published artifact matches no writer")
	}
	if st := c3.Stats(); st.CorruptMisses != 0 {
		t.Errorf("publish race left a corrupt entry: %+v", st)
	}
}
