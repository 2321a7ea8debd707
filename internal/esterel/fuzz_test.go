package esterel

import "testing"

// FuzzParseProgram: no source makes ParseProgram panic, and an
// accepted program has at least one module, each named. Compilation is
// left out: a nest of repeat statements unrolls multiplicatively.
func FuzzParseProgram(f *testing.F) {
	for _, src := range []string{
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
	} {
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
