package pipeline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
)

// liveHandles are the Artifact fields the disk entry leaves out.
var liveHandles = map[string]bool{"CFSM": true, "SGraph": true, "Program": true}

// fillDistinct sets every int, bool and string reachable in v to a
// value no other field holds (ints alternate sign and grow past one
// varint byte), and fails on any kind it cannot fill.
func fillDistinct(t *testing.T, path string, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path == "" && liveHandles[name] {
				continue
			}
			fillDistinct(t, path+"."+name, v.Field(i), next)
		}
		return
	case reflect.Int, reflect.Int64:
		*next++
		n := *next * 1_000_003
		if *next%2 == 0 {
			n = -n
		}
		v.SetInt(n)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*next++
		v.SetString(fmt.Sprintf("field %d", *next))
	default:
		t.Fatalf("Artifact%s: kind %s has no disk encoding; extend entryFields and this test", path, v.Kind())
	}
}

// TestEntryRoundTripEveryField: an Artifact with every serialisable
// field set to a distinct non-zero value survives encode/decode
// exactly, so a field added to Artifact but not to entryFields fails.
func TestEntryRoundTripEveryField(t *testing.T) {
	var a Artifact
	var next int64
	fillDistinct(t, "", reflect.ValueOf(&a).Elem(), &next)
	got, ok := decodeEntry(string(encodeEntry(&a)))
	if !ok {
		t.Fatal("decoding a fresh encoding missed")
	}
	if !reflect.DeepEqual(*got, a) {
		t.Errorf("round trip altered the artifact:\n got %+v\nwant %+v", *got, a)
	}
}

// TestDiskEntryCorruptAsMiss: every malformed entry at the key's path
// is a miss counted in CorruptMisses, never an error, and the Put of
// the following recompile repairs it.
func TestDiskEntryCorruptAsMiss(t *testing.T) {
	dir := t.TempDir()
	m := goodMachine("corrupt")
	key := Fingerprint(m, Options{})
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunModules([]*cfsm.CFSM{m}, Options{}, Config{Jobs: 1, Cache: c1}); err != nil {
		t.Fatal(err)
	}
	path := c1.path(key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := decodeEntry(string(good))
	if !ok {
		t.Fatal("published entry does not decode")
	}
	splice := func(at, drop int, ins ...byte) []byte {
		return append(append(append([]byte{}, good[:at]...), ins...), good[at+drop:]...)
	}
	numTests := len(diskMagic) + len(expr.AppendString(nil, a.Module)) // offset of the first varint
	bools := len(good) - len(expr.AppendString(expr.AppendString(nil, a.C), a.Listing)) - 2
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        splice(0, 1, 'X'),
		"schema 3 magic":   splice(3, 1, 3),
		"schema 3 json":    []byte(`{"Schema":3,"Module":"corrupt","NumTests":1,"C":"void f(){}"}`),
		"non-minimal int":  splice(numTests, 1, good[numTests]|0x80, 0),
		"overlong varint":  splice(numTests, 1, bytes.Repeat([]byte{0xff}, 11)...),
		"overlong string":  append(append(diskMagic[:], binary.AppendUvarint(nil, uint64(len(good)))...), good[len(diskMagic)+1:]...),
		"bool byte 2":      splice(bools, 1, 2),
		"trailing garbage": append(append([]byte{}, good...), 0),
	}
	for k := 1; k < 8; k++ {
		cases[fmt.Sprintf("truncated %d/8", k)] = good[:len(good)*k/8]
	}
	// The oversized row is the good entry extended by os.Truncate to
	// one byte past maxEntryBytes: a sparse file, so it takes no disk
	// space, and Get must refuse it before allocating its size.
	cases["oversized"] = good
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if name == "oversized" {
				if err := os.Truncate(path, maxEntryBytes+1); err != nil {
					t.Fatal(err)
				}
			}
			c2, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, ok := c2.Get(key); ok {
				t.Fatal("malformed entry must be a miss")
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxEntryBytes {
				t.Errorf("the miss allocated %d bytes", grew)
			}
			if st := c2.Stats(); st.CorruptMisses != 1 || st.Misses != 1 {
				t.Errorf("want 1 corrupt miss, got %+v", st)
			}
			if _, err := RunModules([]*cfsm.CFSM{m}, Options{}, Config{Jobs: 1, Cache: c2}); err != nil {
				t.Fatalf("malformed entry must recompile, not fail: %v", err)
			}
			if repaired, err := os.ReadFile(path); err != nil || !bytes.Equal(repaired, good) {
				t.Errorf("the recompile's Put did not repair the entry (err %v)", err)
			}
		})
	}
}

// FuzzDecodeEntry: decoding arbitrary bytes never panics, and any
// accepted input is the canonical encoding of what it decodes to.
func FuzzDecodeEntry(f *testing.F) {
	arts, err := RunModules(testNetwork(f, 5, 3).Machines, Options{Reduce: true}, Config{Jobs: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range arts {
		data := encodeEntry(a)
		for k := 1; k <= 8; k++ {
			f.Add(data[:len(data)*k/8])
		}
	}
	f.Add([]byte(`{"Schema":3,"Module":"m","NumTests":1,"C":"void f(){}"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, ok := decodeEntry(string(data))
		if !ok {
			if a != nil {
				t.Fatal("a miss returned an artifact")
			}
			return
		}
		if again := encodeEntry(a); !bytes.Equal(again, data) {
			t.Fatalf("accepted a non-canonical entry:\n  in %x\nout %x", data, again)
		}
	})
}
