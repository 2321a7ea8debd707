package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"polis/internal/cfsm"
	"polis/internal/expr"
)

// Fingerprint returns the content-addressed cache key of one module
// under the given options: a stable hash over the CFSM's reactive
// function (signals, state variables, tests, actions, transition
// relation, exclusivity groups) and every option that influences the
// generated artifacts. Two modules with the same fingerprint produce
// byte-identical artifacts, so a fingerprint match is a cache hit.
//
// The key is a SHA-256 over one binary stream built by walking the
// machine by shape: every list is count-prefixed and every string
// length-prefixed, so no two different machines share a stream.
// Tests and actions are written as their structural keys
// (cfsm.Test.AppendKey, cfsm.Action.AppendKey, over expr.AppendKey),
// transitions and exclusivity groups as test and action IDs. Nothing is memoized per *cfsm.CFSM: machines are
// mutable, and randcfsm.Mutate edits one in place.
//
// The target profile is identified by its Name; callers that mutate a
// built-in profile must rename it or bypass the cache.
func Fingerprint(m *cfsm.CFSM, opt Options) string {
	sum := sha256.Sum256(appendFingerprint(make([]byte, 0, 1024), m, opt))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// appendFingerprint appends the stream Fingerprint hashes.
func appendFingerprint(b []byte, m *cfsm.CFSM, opt Options) []byte {
	opt.fill()
	b = binary.AppendUvarint(b, fingerprintVersion)
	b = expr.AppendString(b, m.Name)
	b = appendSignals(b, m.Inputs)
	b = appendSignals(b, m.Outputs)
	b = binary.AppendUvarint(b, uint64(len(m.States)))
	for _, sv := range m.States {
		b = expr.AppendString(b, sv.Name)
		b = binary.AppendVarint(b, int64(sv.Domain))
		b = binary.AppendVarint(b, sv.Init)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Tests)))
	for _, t := range m.Tests {
		b = t.AppendKey(b)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Actions)))
	for _, a := range m.Actions {
		b = a.AppendKey(b)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Trans)))
	for _, tr := range m.Trans {
		b = binary.AppendUvarint(b, uint64(len(tr.Guard)))
		for _, c := range tr.Guard {
			b = binary.AppendUvarint(b, uint64(m.TestID(c.Test)))
			b = binary.AppendVarint(b, int64(c.Val))
		}
		b = binary.AppendUvarint(b, uint64(len(tr.Actions)))
		for _, a := range tr.Actions {
			b = binary.AppendUvarint(b, uint64(m.ActionID(a)))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Exclusive)))
	for _, grp := range m.Exclusive {
		b = binary.AppendUvarint(b, uint64(len(grp)))
		for _, t := range grp {
			b = binary.AppendUvarint(b, uint64(m.TestID(t)))
		}
	}
	b = binary.AppendVarint(b, int64(opt.Ordering))
	b = expr.AppendString(b, opt.Target.Name)
	b = appendBool(b, opt.Codegen.OptimizeCopies)
	b = binary.AppendVarint(b, int64(opt.Codegen.IfThreshold))
	b = appendBool(b, opt.UseFalsePaths)
	b = appendBool(b, opt.Reduce)
	if opt.Reduce {
		// The bytes of the five reduce options the stream carried
		// when they could be set, all at their zero value; kept so
		// every version-2 key stays valid.
		b = append(b, 0, 0, 0, 0, 0)
	}
	// Specialization reshapes the generated code, so the profile
	// evidence for this module is part of the cache key. Modules the
	// profile has nothing on stay on their unspecialized key.
	mp := opt.Profile.Module(m.Name) // nil-safe
	specialize := mp.Spec() != nil
	b = appendBool(b, specialize)
	if specialize {
		b = expr.AppendString(b, mp.Fingerprint())
	}
	return b
}

// fingerprintVersion leads the fingerprint stream; bump it whenever
// the stream's layout changes, so old keys can never collide with new
// ones.
const fingerprintVersion = 2

func appendSignals(b []byte, sigs []*cfsm.Signal) []byte {
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	for _, s := range sigs {
		b = expr.AppendString(b, s.Name)
		b = appendBool(b, s.Pure)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Cache is the content-addressed artifact cache: an always-on
// in-memory map, optionally backed by an on-disk directory so hits
// survive across processes. It is safe for concurrent use; lookups
// take a read lock so concurrent hits never serialize each other.
//
// Artifacts served from memory carry their live SGraph/Program/CFSM
// handles; artifacts restored from disk carry only the serialisable
// payload (C, listing, estimates, measurements, s-graph statistics)
// and have nil live handles. Each disk entry is one length-prefixed
// binary file per fingerprint (see entryFields). A truncated,
// corrupted or oversized (see maxEntryBytes) disk entry is treated as
// a miss — the module is recompiled and the bad entry overwritten by
// the following Put — and counted in Stats().CorruptMisses.
//
// The cache also carries the singleflight registry used by the
// pipeline (and by polisd across requests): at most one synthesis per
// fingerprint is in flight at a time, concurrent missers wait for the
// leader's artifact.
type Cache struct {
	mu  sync.RWMutex
	mem map[string]*Artifact
	dir string
	// prefix is dir joined with an empty file name, so an entry's
	// path is one concatenation (see path).
	prefix string

	flightMu sync.Mutex
	flights  map[string]*flight

	// Counters are atomics so the hot read path never takes a write
	// lock; lock-wait times expose contention on mu itself.
	memHits, diskHits, misses, corrupt atomic.Int64
	dedupJoins                         atomic.Int64
	getWaitNs, putWaitNs               atomic.Int64
}

// flight is one in-progress synthesis; followers block on done, then
// read a/err (the close happens-after both writes).
type flight struct {
	done chan struct{}
	a    *Artifact
	err  error
}

// NewCache creates a cache. With dir == "" the cache is in-memory
// only; otherwise dir is created (if needed) and used as the on-disk
// layer, one binary entry file per fingerprint.
func NewCache(dir string) (*Cache, error) {
	var prefix string
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("pipeline: cache dir: %w", err)
		}
		// Join cleans dir and adds a separator where one is needed;
		// dropping the one-byte name leaves what it put before it.
		prefix = filepath.Join(dir, "x")
		prefix = prefix[:len(prefix)-1]
	}
	return &Cache{
		mem:     make(map[string]*Artifact),
		flights: make(map[string]*flight),
		dir:     dir,
		prefix:  prefix,
	}, nil
}

// startFlight registers interest in synthesizing key. The first caller
// becomes the leader (leader == true) and must call endFlight exactly
// once; later callers receive the existing flight to wait on.
func (c *Cache) startFlight(key string) (f *flight, leader bool) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[key]; ok {
		c.dedupJoins.Add(1)
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// peek reads key from memory without counting a lookup; the caller's
// Get has already counted it.
func (c *Cache) peek(key string) (*Artifact, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.mem[key]
	return a, ok
}

// endFlight publishes the leader's result and wakes the followers.
func (c *Cache) endFlight(key string, f *flight, a *Artifact, err error) {
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	f.a, f.err = a, err
	close(f.done)
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries       int           // in-memory artifacts
	MemHits       int64         // hits served from memory
	DiskHits      int64         // hits restored from the on-disk layer
	Misses        int64         // lookups that found nothing usable
	CorruptMisses int64         // subset of Misses: malformed, truncated or oversized disk entries
	DedupJoins    int64         // singleflight followers that joined an in-flight synthesis
	GetWait       time.Duration // cumulative time spent waiting for the read lock
	PutWait       time.Duration // cumulative time spent waiting for the write lock
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	entries := len(c.mem)
	c.mu.RUnlock()
	return CacheStats{
		Entries:       entries,
		MemHits:       c.memHits.Load(),
		DiskHits:      c.diskHits.Load(),
		Misses:        c.misses.Load(),
		CorruptMisses: c.corrupt.Load(),
		DedupJoins:    c.dedupJoins.Load(),
		GetWait:       time.Duration(c.getWaitNs.Load()),
		PutWait:       time.Duration(c.putWaitNs.Load()),
	}
}

// diskSchema versions the on-disk entry layout; it is the last byte
// of diskMagic, so an entry of any other schema is a miss.
const diskSchema = 4

var diskMagic = [4]byte{'P', 'O', 'L', diskSchema}

// path is filepath.Join(c.dir, key+".bin") for a fingerprint key,
// built in one concatenation.
func (c *Cache) path(key string) string {
	return c.prefix + key + ".bin"
}

// maxEntryBytes caps the size of a disk entry Get will read, so a
// huge, sparse or hostile file in the cache directory cannot make a
// lookup allocate without bound. Entries are small: the largest the
// paper's designs and the random corpora produce (randcfsm up to
// Scaled(4), with and without Reduce) is 6.6 KB, and the largest a
// test publishes is the 4 MiB payload of TestCachePublishRace. 64 MiB
// is four orders of magnitude above the first and 16 times the
// second, so no entry Put writes in practice is refused, while a
// lookup still allocates at most 64 MiB per concurrent caller. A
// larger file is a corrupt miss, and the recompile's Put overwrites
// it.
const maxEntryBytes = 64 << 20

// errEntryTooLarge is readEntry's refusal of a file over
// maxEntryBytes.
var errEntryTooLarge = errors.New("pipeline: cache entry exceeds maxEntryBytes")

// entryVisitor is one direction of the disk-entry codec: entryFields
// walks an Artifact's serialisable fields through it, so the encoder
// and the decoder share one field order and cannot disagree on the
// layout.
type entryVisitor interface {
	intField(p *int)
	int64Field(p *int64)
	boolField(p *bool)
	stringField(p *string)
}

// entryFields visits the serialisable payload of a in the disk-entry
// order: Module, every integer field, the two bools, then C and
// Listing. Live handles (SGraph, Program, CFSM) are intentionally
// absent: they are cheap to rebuild when needed and expensive to
// serialise faithfully.
func entryFields(v entryVisitor, a *Artifact) {
	v.stringField(&a.Module)
	for _, p := range [...]*int{&a.NumTests, &a.NumActions, &a.NumTrans} {
		v.intField(p)
	}
	e := &a.Estimate
	for _, p := range [...]*int64{&e.CodeBytes, &e.DataBytes, &e.MinCycles, &e.MaxCycles,
		&e.ExpectedCycles, &a.Measured.Min, &a.Measured.Max} {
		v.int64Field(p)
	}
	v.intField(&a.CodeSize)
	st := &a.Stats
	for _, p := range [...]*int{&st.Vertices, &st.Tests, &st.Assigns, &st.Edges, &st.Depth} {
		v.intField(p)
	}
	v.int64Field(&st.Paths)
	r := &a.Reduce
	for _, p := range [...]*int{&r.VerticesBefore, &r.VerticesAfter, &r.TestsBefore,
		&r.TestsAfter, &r.AssignsBefore, &r.AssignsAfter, &r.Shares, &r.TestsEliminated,
		&r.EdgesRedirected, &r.AssignsDropped, &r.Iterations} {
		v.intField(p)
	}
	v.int64Field(&a.Specialize.Samples)
	v.intField(&a.Specialize.Tests)
	v.intField(&a.Specialize.Reordered)
	v.boolField(&a.Reduced)
	v.boolField(&a.Specialized)
	v.stringField(&a.C)
	v.stringField(&a.Listing)
}

// entryWriter appends the disk entry: integers as zig-zag varints,
// bools as one 0/1 byte, strings as a uvarint length and raw bytes.
type entryWriter struct{ b []byte }

func (w *entryWriter) intField(p *int)       { w.b = binary.AppendVarint(w.b, int64(*p)) }
func (w *entryWriter) int64Field(p *int64)   { w.b = binary.AppendVarint(w.b, *p) }
func (w *entryWriter) boolField(p *bool)     { w.b = appendBool(w.b, *p) }
func (w *entryWriter) stringField(p *string) { w.b = expr.AppendString(w.b, *p) }

// encodeEntry serialises the payload of a behind diskMagic.
func encodeEntry(a *Artifact) []byte {
	w := entryWriter{b: make([]byte, 0, len(diskMagic)+len(a.Module)+len(a.C)+len(a.Listing)+128)}
	w.b = append(w.b, diskMagic[:]...)
	entryFields(&w, a)
	return w.b
}

// entryReader decodes what entryWriter wrote. It is strict, so every
// input has at most one accepted encoding: a truncated or overlong
// varint, a non-minimal varint, a string longer than the remaining
// bytes or a bool byte other than 0/1 marks the entry bad, and every
// later field reads as zero. String fields are substrings of the
// input, never copies.
type entryReader struct {
	s   string
	bad bool
}

// uvarint reads what binary.AppendUvarint wrote, accepting exactly
// what binary.Uvarint accepts except a non-minimal encoding (a last
// byte of 0 after the first).
func (r *entryReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	var v uint64
	for i := 0; i < len(r.s); i++ {
		b := r.s[i]
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break // overflows 64 bits, or longer than ten bytes
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				break // non-minimal
			}
			r.s = r.s[i+1:]
			return v
		}
	}
	r.bad = true
	return 0
}

func (r *entryReader) int64Field(p *int64) {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	*p = v
}

func (r *entryReader) intField(p *int) {
	var v int64
	r.int64Field(&v)
	if int64(int(v)) != v {
		r.bad = true
	}
	*p = int(v)
}

func (r *entryReader) boolField(p *bool) {
	if r.bad || len(r.s) == 0 || r.s[0] > 1 {
		r.bad = true
		return
	}
	*p = r.s[0] == 1
	r.s = r.s[1:]
}

func (r *entryReader) stringField(p *string) {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.s)) {
		r.bad = true
		return
	}
	*p = r.s[:n]
	r.s = r.s[n:]
}

// decodeEntry parses a disk entry. It returns ok == false for bad
// magic or schema, any malformed field, trailing bytes or an empty
// Module; it never panics. The artifact's Module, C and Listing are
// substrings of data, so they keep all of data alive.
func decodeEntry(data string) (a *Artifact, ok bool) {
	if len(data) < len(diskMagic) || data[:len(diskMagic)] != string(diskMagic[:]) {
		return nil, false
	}
	r := entryReader{s: data[len(diskMagic):]}
	a = new(Artifact)
	entryFields(&r, a)
	if r.bad || len(r.s) != 0 || a.Module == "" {
		return nil, false
	}
	return a, true
}

// Get looks the key up, memory first, then disk. fromDisk reports
// which layer served the hit.
func (c *Cache) Get(key string) (a *Artifact, fromDisk, ok bool) {
	t := time.Now()
	c.mu.RLock()
	c.getWaitNs.Add(time.Since(t).Nanoseconds())
	a, ok = c.mem[key]
	c.mu.RUnlock()
	if ok {
		c.memHits.Add(1)
		return a, false, true
	}
	if c.dir == "" {
		c.misses.Add(1)
		return nil, false, false
	}
	data, err := readEntry(c.path(key))
	if err == nil {
		// data is the only reference to the buffer readEntry has just
		// filled, and nothing writes that buffer again, so it changes
		// owner here, once: from now on the string is its only user,
		// and the decoded artifact's strings are substrings of it.
		a, ok = decodeEntry(unsafe.String(unsafe.SliceData(data), len(data)))
	}
	if !ok {
		// A missing or unreadable file is a plain miss. An oversized,
		// truncated, corrupted or stale entry is a corrupt miss, never
		// an error; the recompile's Put overwrites the bad file.
		if err == nil || err == errEntryTooLarge {
			c.corrupt.Add(1)
		}
		c.misses.Add(1)
		return nil, false, false
	}
	t = time.Now()
	c.mu.Lock()
	c.putWaitNs.Add(time.Since(t).Nanoseconds())
	c.mem[key] = a
	c.mu.Unlock()
	c.diskHits.Add(1)
	return a, true, true
}

// Put stores the artifact in memory and, when a directory is
// configured, on disk. Disk writes are best-effort: an I/O failure
// degrades the cache, it never fails the synthesis. The entry
// encoding and the file write happen outside the lock, so slow disks
// never serialize the workers.
func (c *Cache) Put(key string, a *Artifact) {
	t := time.Now()
	c.mu.Lock()
	c.putWaitNs.Add(time.Since(t).Nanoseconds())
	c.mem[key] = a
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	data := encodeEntry(a)
	// Publish through a uniquely-named temp file in the cache dir.
	// A fixed per-key temp path would let two same-key writers
	// (goroutines, or two processes sharing the directory as a
	// shard shuffle layer) interleave O_TRUNC opens and writes, so
	// one of them could rename a torn file into place. CreateTemp
	// gives every writer its own inode; whichever rename lands last
	// wins with a complete file either way.
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	_ = os.Chmod(tmp.Name(), 0o644) // CreateTemp defaults to 0600
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name()) // best-effort publish, never an error
	}
}
