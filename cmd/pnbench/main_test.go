package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestCompareReports(t *testing.T) {
	prev := Report{Results: []Result{
		{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, AllocsPerOp: f64(10)},
		{Name: "BenchmarkB", Package: "p", NsPerOp: 1000, AllocsPerOp: f64(10)},
		{Name: "BenchmarkC", Package: "p", NsPerOp: 1000},
	}}
	cur := Report{Results: []Result{
		// Within tolerance, allocs flat: clean.
		{Name: "BenchmarkA", Package: "p", NsPerOp: 1100, AllocsPerOp: f64(10)},
		// Alloc regression (any increase) AND ns regression (>15%).
		{Name: "BenchmarkB", Package: "p", NsPerOp: 1200, AllocsPerOp: f64(11)},
		// Faster: never a regression.
		{Name: "BenchmarkC", Package: "p", NsPerOp: 500},
		// New benchmark with no baseline: skipped.
		{Name: "BenchmarkD", Package: "p", NsPerOp: 9e9, AllocsPerOp: f64(1e6)},
	}}
	regs := compareReports(prev, cur)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions (%v), want 2", len(regs), regs)
	}
	if !strings.Contains(regs[0], "allocs/op") || !strings.Contains(regs[0], "BenchmarkB") {
		t.Errorf("alloc regression diagnostic: %q", regs[0])
	}
	if !strings.Contains(regs[1], "ns/op") || !strings.Contains(regs[1], "BenchmarkB") {
		t.Errorf("ns regression diagnostic: %q", regs[1])
	}
	if got := compareReports(prev, prev); len(got) != 0 {
		t.Errorf("self-comparison reported regressions: %v", got)
	}
}

func TestBenchtimeMismatch(t *testing.T) {
	if msg, ok := benchtimeMismatch("50x", "50x"); !ok || msg != "" {
		t.Errorf("matching benchtimes refused: %q", msg)
	}
	if msg, ok := benchtimeMismatch("5x", "50x"); ok || !strings.Contains(msg, "5x") || !strings.Contains(msg, "50x") {
		t.Errorf("mismatched benchtimes: ok=%v msg=%q", ok, msg)
	}
	if msg, ok := benchtimeMismatch("", "50x"); ok || !strings.Contains(msg, "no benchtime") {
		t.Errorf("legacy baseline without benchtime: ok=%v msg=%q", ok, msg)
	}
}

// TestBenchKeyStripsGOMAXPROCSSuffix: results match across reports taken
// at different GOMAXPROCS, and only the report's own suffix is removed.
func TestBenchKeyStripsGOMAXPROCSSuffix(t *testing.T) {
	for _, c := range []struct {
		name  string
		procs int
		want  string
	}{
		{"BenchmarkCampaignTraceFree/workers=1", 1, "p BenchmarkCampaignTraceFree/workers=1"},
		{"BenchmarkCampaignTraceFree/workers=1-4", 4, "p BenchmarkCampaignTraceFree/workers=1"},
		{"BenchmarkStorageDispatch/ideal-8", 8, "p BenchmarkStorageDispatch/ideal"},
		// A report without a recorded GOMAXPROCS strips nothing.
		{"BenchmarkStorageDispatch/ideal-8", 0, "p BenchmarkStorageDispatch/ideal-8"},
		// A sub-benchmark name ending in digits keeps them at GOMAXPROCS 1
		// and loses only the appended suffix otherwise.
		{"BenchmarkX/width-8", 1, "p BenchmarkX/width-8"},
		{"BenchmarkX/width-8-2", 2, "p BenchmarkX/width-8"},
		{"BenchmarkX/width-8", 2, "p BenchmarkX/width-8"},
	} {
		if got := benchKey(Result{Name: c.name, Package: "p"}, c.procs); got != c.want {
			t.Errorf("benchKey(%q, %d) = %q, want %q", c.name, c.procs, got, c.want)
		}
	}
}

// TestCompareReportsAcrossGOMAXPROCS: a baseline recorded at GOMAXPROCS 1
// (no name suffix) still gates a run on a 4-CPU machine ("-4" suffix).
func TestCompareReportsAcrossGOMAXPROCS(t *testing.T) {
	prev := Report{GOMAXPROCS: 1, Results: []Result{
		{Name: "BenchmarkCampaignTraceFree/workers=1", Package: "p", AllocsPerOp: f64(10)},
	}}
	cur := Report{GOMAXPROCS: 4, Results: []Result{
		{Name: "BenchmarkCampaignTraceFree/workers=1-4", Package: "p", AllocsPerOp: f64(11)},
	}}
	regs := compareReports(prev, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("alloc increase across GOMAXPROCS not gated: %v", regs)
	}
}

// TestDefaultBenchNamesDefinedBenchmarks: every benchmark the default
// set selects is defined somewhere in the module, so deleting a
// benchmark cannot silently shrink the recorded set, and the campaign
// benchmark the README quotes is part of it.
func TestDefaultBenchNamesDefinedBenchmarks(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, build caches
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`).FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Split(defaultBench, "|")
	for _, name := range names {
		if !defined[name] {
			t.Errorf("defaultBench names %s, which no _test.go file defines", name)
		}
	}
	if !strings.Contains(defaultBench, "BenchmarkCampaignTraceFree") {
		t.Error("defaultBench is missing BenchmarkCampaignTraceFree")
	}
}

func TestParseBenchLine(t *testing.T) {
	pkg := "pnps/internal/sim"
	r, ok := parseBenchLine(
		"BenchmarkStorageDispatch/ideal-8         \t       5\t   7502666 ns/op\t    6177 B/op\t      31 allocs/op", pkg)
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkStorageDispatch/ideal-8" || r.Package != pkg {
		t.Errorf("identity: %+v", r)
	}
	if r.Iterations != 5 || r.NsPerOp != 7502666 {
		t.Errorf("timing: %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 6177 || r.AllocsPerOp == nil || *r.AllocsPerOp != 31 {
		t.Errorf("memory: %+v", r)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine(
		"BenchmarkCampaignTraceFree/workers=4-4 \t 3\t 11937706 ns/op\t 22.02 meanPct5\t 452954 B/op\t 1453 allocs/op", "p")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Metrics["meanPct5"] != 22.02 {
		t.Errorf("custom metric: %+v", r.Metrics)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  \tpnps/internal/sim\t0.12s",
		"BenchmarkBroken",                     // no fields
		"BenchmarkNoTiming-8 \t 10\t 42 B/op", // pairs but no ns/op
		"Benchmark bad iteration count x ns/op",
	} {
		if _, ok := parseBenchLine(line, ""); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseBenchOutputTracksPackages(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: pnps/internal/sim
cpu: Intel
BenchmarkA-8   	 10	 100 ns/op
PASS
pkg: pnps/internal/scenario
BenchmarkB-8   	 20	 200 ns/op	 5 B/op	 1 allocs/op
PASS
`
	rs := parseBenchOutput(out)
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rs))
	}
	if rs[0].Package != "pnps/internal/sim" || rs[1].Package != "pnps/internal/scenario" {
		t.Errorf("package attribution: %+v", rs)
	}
	if rs[0].BytesPerOp != nil || rs[1].BytesPerOp == nil {
		t.Error("benchmem fields mis-parsed")
	}
}
