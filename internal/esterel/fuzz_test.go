package esterel

import (
	"errors"
	"testing"
)

// fuzzSeeds seed both Esterel fuzz targets.
var fuzzSeeds = []string{
	fig1,
	twoModuleProgram,
	`module sel:
input tick; input mode;
output fast; output slow;
loop
  await tick;
  if present mode then emit fast; else emit slow; end if
end loop
end module`,
	`module r: input t; output o : integer;
var n : integer in
repeat 3 times await t; n := (n + 1) mod 4; end repeat
emit o(n);
end var
end module`,
	"module m:",
	"module a: end module module",
}

// FuzzParseProgram: no source makes ParseProgram panic, and an
// accepted program has at least one module, each named.
func FuzzParseProgram(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mods, err := ParseProgram(src)
		if err != nil {
			return
		}
		if len(mods) == 0 {
			t.Fatal("accepted a program with no modules")
		}
		for i, m := range mods {
			if m == nil || m.Name == "" {
				t.Fatalf("module %d accepted without a name", i)
			}
		}
	})
}

// FuzzCompileProgram: no source makes CompileProgram panic or run past
// MaxCompileSize per module (a nest of repeats, a run of sequential
// ifs or a chain of assignments ends in a *SizeError), and an accepted
// program is a valid network with one machine per module.
func FuzzCompileProgram(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		net, machines, err := CompileProgram(src)
		if err != nil {
			var se *SizeError
			if errors.As(err, &se) && se.Module == "" {
				t.Fatalf("size error names no module: %v", err)
			}
			return
		}
		if len(net.Machines) == 0 || len(net.Machines) != len(machines) {
			t.Fatalf("%d machines in the network, %d modules", len(net.Machines), len(machines))
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("accepted network does not validate: %v", err)
		}
	})
}
