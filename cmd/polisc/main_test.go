package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the real polisc when the
// process-mode shard driver re-execs os.Executable() as
// `polisc shard-worker`.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard-worker" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// threeModuleProgram is a 3-module network: divider halves the tick
// rate, toggler flips an LED on each half-tick, and monitor counts
// LED changes, alarming every fourth one.
const threeModuleProgram = `
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

module monitor:
input led : integer;
output alarm;
var seen : integer in
loop
  await led;
  if seen = 3 then
    seen := 0;
    emit alarm;
  else
    seen := seen + 1;
  end if
end loop
end var
end module
`

// runPolisc executes the driver with the given extra flags over the
// 3-module source and returns stdout plus the generated files.
func runPolisc(t *testing.T, extra ...string) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "net.strl")
	if err := os.WriteFile(srcPath, []byte(threeModuleProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	args := append(append([]string{}, extra...), "-c", "-asm", "-o", outDir, srcPath)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("polisc %v exited %d: %s", args, code, stderr.String())
	}
	files := make(map[string]string)
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(outDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	// The output embeds the temp dir in "wrote ..." lines; strip them
	// so runs from different temp dirs compare equal.
	var kept []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "wrote ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n"), files
}

// TestGoldenDeterminism synthesizes the 3-module network serially and
// with 8 workers and requires byte-identical reports and generated C:
// the pipeline must order results by source position, not by
// completion.
func TestGoldenDeterminism(t *testing.T) {
	out1, files1 := runPolisc(t, "-j", "1")
	out8, files8 := runPolisc(t, "-j", "8")

	if out1 != out8 {
		t.Errorf("stdout differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", out1, out8)
	}
	if len(files1) != len(files8) {
		t.Fatalf("file sets differ: %d vs %d", len(files1), len(files8))
	}
	for name, text := range files1 {
		if files8[name] != text {
			t.Errorf("generated %s differs between -j 1 and -j 8", name)
		}
	}
	// Sanity: all three modules plus RTOS sources came out.
	for _, want := range []string{"divider.c", "toggler.c", "monitor.c", "rtos.c", "polis_rtos.h"} {
		if _, ok := files1[want]; !ok {
			t.Errorf("missing generated file %s (have %v)", want, keys(files1))
		}
	}
	// Reports appear in source order.
	iDiv := strings.Index(out1, "CFSM divider")
	iTog := strings.Index(out1, "CFSM toggler")
	iMon := strings.Index(out1, "CFSM monitor")
	if iDiv < 0 || iTog < 0 || iMon < 0 || !(iDiv < iTog && iTog < iMon) {
		t.Errorf("module reports out of order or missing: div=%d tog=%d mon=%d", iDiv, iTog, iMon)
	}
}

// TestStatsFlag checks that -stats appends the pipeline report.
func TestStatsFlag(t *testing.T) {
	out, _ := runPolisc(t, "-j", "2", "-stats")
	for _, want := range []string{"pipeline: 3 module(s)", "reactive", "cache: 0 hit(s)", "errors: none"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q in:\n%s", want, out)
		}
	}
}

// TestDiskCacheRerun runs twice against one cache directory: the
// second run must hit for all three modules and still print identical
// reports.
func TestDiskCacheRerun(t *testing.T) {
	cacheDir := t.TempDir()
	out1, _ := runPolisc(t, "-cache", cacheDir, "-stats")
	out2, _ := runPolisc(t, "-cache", cacheDir, "-stats")
	if !strings.Contains(out1, "3 miss(es)") {
		t.Errorf("cold run should miss 3 times:\n%s", out1)
	}
	if !strings.Contains(out2, "cache: 3 hit(s) (3 from disk)") {
		t.Errorf("warm run should hit 3 times from disk:\n%s", out2)
	}
	// Reports (everything before the stats block) must agree.
	cut := func(s string) string {
		if i := strings.Index(s, "pipeline:"); i >= 0 {
			return s[:i]
		}
		return s
	}
	if cut(out1) != cut(out2) {
		t.Errorf("cached rerun output differs:\n--- cold ---\n%s\n--- warm ---\n%s", out1, out2)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestShardDeterminism: sharded runs — one, two and eight worker
// processes — all produce output and generated sources byte-identical
// to the plain pipeline.
func TestShardDeterminism(t *testing.T) {
	base, baseFiles := runPolisc(t, "-j", "2")
	for _, extra := range [][]string{
		{"-shards", "1"},
		{"-shards", "8"},
		{"-shards", "2"},
	} {
		out, files := runPolisc(t, extra...)
		if out != base {
			t.Errorf("%v: stdout differs from unsharded run:\n--- base ---\n%s\n--- sharded ---\n%s", extra, base, out)
		}
		for name, text := range baseFiles {
			if files[name] != text {
				t.Errorf("%v: generated %s differs from unsharded run", extra, name)
			}
		}
	}
}

// TestShardStats: -stats on a sharded run prints the shard summary
// with merged attribution, a second run over the same cache directory
// is served from disk, and without -cache the workers share a
// temporary directory.
func TestShardStats(t *testing.T) {
	cacheDir := t.TempDir()
	cold, _ := runPolisc(t, "-shards", "2", "-cache", cacheDir, "-stats")
	for _, want := range []string{
		"shard: 2 shard(s) (process), 3 module(s)",
		"miss 3 | mem 0 | disk 0 | dedup 0",
	} {
		if !strings.Contains(cold, want) {
			t.Errorf("cold shard stats missing %q in:\n%s", want, cold)
		}
	}
	warm, _ := runPolisc(t, "-shards", "2", "-cache", cacheDir, "-stats")
	if !strings.Contains(warm, "miss 0 | mem 0 | disk 3 | dedup 0") {
		t.Errorf("warm shard run should be served from the shared disk cache:\n%s", warm)
	}

	tmp, _ := runPolisc(t, "-shards", "2", "-stats")
	if !strings.Contains(tmp, "shard: 2 shard(s) (process), 3 module(s), miss 3 | mem 0 | disk 0 | dedup 0") {
		t.Errorf("shard run without -cache missing summary in:\n%s", tmp)
	}

	// The stages ran in the worker processes, so the master report
	// must not print a stage table of zeros.
	zeroStage := regexp.MustCompile(`(?m)^\s*reactive\s.*\s0$`)
	for name, out := range map[string]string{"cold": cold, "warm": warm, "no -cache": tmp} {
		if !strings.Contains(out, "pipeline: 3 module(s)") {
			t.Errorf("%s shard run missing the pipeline report in:\n%s", name, out)
		}
		if zeroStage.MatchString(out) {
			t.Errorf("%s shard run prints an all-zero stage table:\n%s", name, out)
		}
	}
}

// TestReduceFlag drives the -reduce path end-to-end: the synthesized
// artifacts must still come out for every module, the per-module
// report must carry the reduce statistics line, and -stats must show
// the reduce stage with its aggregate counters.
func TestReduceFlag(t *testing.T) {
	out, files := runPolisc(t, "-reduce", "-stats")
	for _, want := range []string{
		"CFSM divider", "CFSM toggler", "CFSM monitor",
		"reduce: vertices",
		"reduce: 3 module(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("reduce run missing %q in:\n%s", want, out)
		}
	}
	for _, want := range []string{"divider.c", "toggler.c", "monitor.c"} {
		if _, ok := files[want]; !ok {
			t.Errorf("missing generated file %s with -reduce", want)
		}
	}
	// Reduction must not perturb cache identity: a reduce run and a
	// plain run have different fingerprints, so a shared cache dir
	// serves neither run stale artifacts of the other.
	cacheDir := t.TempDir()
	plain, _ := runPolisc(t, "-cache", cacheDir, "-stats")
	reduced, _ := runPolisc(t, "-reduce", "-cache", cacheDir, "-stats")
	if !strings.Contains(plain, "3 miss(es)") || !strings.Contains(reduced, "3 miss(es)") {
		t.Errorf("reduce and plain runs must not share cache entries:\nplain:\n%s\nreduced:\n%s",
			plain, reduced)
	}
}
