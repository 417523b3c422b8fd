package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchOutput feeds a realistic `go test -bench -benchmem`
// transcript through the parser: benchmark lines become records with
// every (value, unit) pair kept, headers and the trailer echo through.
func TestParseBenchOutput(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: pmemaccel",
		"BenchmarkSimulatorSpeed-8                1        60707156 ns/op         59404232 sim_cycles/s        35400960 B/op     121657 allocs/op",
		"BenchmarkSimulatorSpeedMetrics-8         1        61234567 ns/op         58900000 sim_cycles/s        35500000 B/op     121900 allocs/op",
		"PASS",
		"ok      pmemaccel       1.234s",
	}, "\n")
	var echo bytes.Buffer
	f, err := parse(strings.NewReader(in), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	if b.Name != "SimulatorSpeed" {
		t.Errorf("name = %q, want GOMAXPROCS suffix and Benchmark prefix stripped", b.Name)
	}
	if b.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", b.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 60707156, "sim_cycles/s": 59404232,
		"B/op": 35400960, "allocs/op": 121657,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metrics[%q] = %v, want %v", unit, got, want)
		}
	}
	for _, line := range []string{"goos: linux", "PASS", "ok      pmemaccel"} {
		if !strings.Contains(echo.String(), line) {
			t.Errorf("non-benchmark line %q not echoed", line)
		}
	}
}

// TestParseRejectsEmptyInput: piping in a run with no benchmark lines
// (wrong -bench pattern) must fail loudly, not write an empty record.
func TestParseRejectsEmptyInput(t *testing.T) {
	_, err := parse(strings.NewReader("PASS\nok pmemaccel 0.1s\n"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("err = %v, want a no-benchmarks error", err)
	}
}

// TestParseLineMalformed covers the shapes that must not parse as
// benchmarks: odd value/unit pairing, non-numeric counts, and lines
// without an ns/op measurement.
func TestParseLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8 1 100 ns/op extra",             // odd pair
		"BenchmarkX-8 zero 100 ns/op",                // bad iteration count
		"BenchmarkX-8 1 100 sim_cycles/s 5 B/op",     // no ns/op
		"Benchmark output: BenchmarkX-8 1 100 x y z", // prose mentioning a benchmark
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

// TestCheckFile round-trips a record through the validator and checks
// the validator rejects the failure modes CI guards against.
func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f File) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := File{Schema: schemaVersion, Benchmarks: []Bench{
		{Name: "SimulatorSpeed", Iterations: 1, Metrics: map[string]float64{"ns/op": 1e8}},
	}}
	if _, err := checkFile(write("good.json", good)); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	for name, bad := range map[string]File{
		"schema.json": {Schema: schemaVersion + 1, Benchmarks: good.Benchmarks},
		"empty.json":  {Schema: schemaVersion},
		"noname.json": {Schema: schemaVersion, Benchmarks: []Bench{
			{Iterations: 1, Metrics: map[string]float64{"ns/op": 1}}}},
		"nonsop.json": {Schema: schemaVersion, Benchmarks: []Bench{
			{Name: "X", Iterations: 1, Metrics: map[string]float64{"B/op": 1}}}},
	} {
		if _, err := checkFile(write(name, bad)); err == nil {
			t.Errorf("%s: invalid record accepted", name)
		}
	}
	if _, err := checkFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestGate pins the regression gate: sim_cycles/s may drop up to the
// tolerance against the baseline, a larger drop fails and names the
// benchmark, speedups always pass, and disjoint benchmark sets error
// rather than silently gating nothing.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, cyclesPerSec ...float64) string {
		f := File{Schema: schemaVersion}
		names := []string{"SimulatorSpeed", "SimulatorSpeedMetrics"}
		for i, c := range cyclesPerSec {
			f.Benchmarks = append(f.Benchmarks, Bench{
				Name: names[i], Iterations: 1,
				Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": c},
			})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := mk("base.json", 100e6, 50e6)
	cur := &File{Schema: schemaVersion, Benchmarks: []Bench{
		{Name: "SimulatorSpeed", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 95e6}},
		{Name: "SimulatorSpeedMetrics", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 60e6}},
	}}
	if err := gate(cur, baseline, 0.10, true); err != nil {
		t.Errorf("5%% slowdown within 10%% tolerance rejected: %v", err)
	}
	cur.Benchmarks[0].Metrics["sim_cycles/s"] = 80e6
	err := gate(cur, baseline, 0.10, true)
	if err == nil || !strings.Contains(err.Error(), "SimulatorSpeed") {
		t.Errorf("20%% slowdown passed the 10%% gate: %v", err)
	}
	disjoint := &File{Schema: schemaVersion, Benchmarks: []Bench{
		{Name: "Elsewhere", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 1}},
	}}
	if err := gate(disjoint, baseline, 0.10, true); err == nil {
		t.Error("gate with no benchmarks in common reported success")
	}
	if err := gate(cur, filepath.Join(dir, "missing.json"), 0.10, true); err == nil {
		t.Error("gate with unreadable baseline reported success")
	}
}

// TestGateZeroOrMissingBaselineMetric pins the broken-record paths: a
// benchmark present on both sides whose baseline (or current)
// sim_cycles/s is zero or absent is skipped with a warning rather than
// dividing by zero or silently passing — and when every common benchmark
// is broken that way, the gate fails instead of reporting success.
func TestGateZeroOrMissingBaselineMetric(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f File) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := write("base.json", File{Schema: schemaVersion, Benchmarks: []Bench{
		{Name: "Zero", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 0}},
		{Name: "Missing", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1}},
		{Name: "Good", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 100e6}},
	}})
	cur := &File{Schema: schemaVersion, Benchmarks: []Bench{
		{Name: "Zero", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 90e6}},
		{Name: "Missing", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 90e6}},
		{Name: "Good", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": 99e6}},
	}}
	// Zero and Missing are skipped (no division by zero, no phantom
	// regression), Good compares and passes.
	if err := gate(cur, baseline, 0.10, true); err != nil {
		t.Errorf("gate with one usable benchmark failed: %v", err)
	}
	// A zero metric on the current side is likewise skipped, not passed.
	cur.Benchmarks[2].Metrics["sim_cycles/s"] = 0
	if err := gate(cur, baseline, 0.10, true); err == nil {
		t.Error("gate with every common benchmark broken reported success")
	}
}

// TestGateAllocs pins the allocs/op gate and the mode rule: allocs/op
// may rise up to the tolerance and is gated for a fresh run and for a
// committed record alike, while sim_cycles/s is gated only between
// committed records.
func TestGateAllocs(t *testing.T) {
	record := func(cyclesPerSec, allocs float64) *File {
		return &File{Schema: schemaVersion, Benchmarks: []Bench{{
			Name: "SimulatorSpeed", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 1, "sim_cycles/s": cyclesPerSec, "allocs/op": allocs},
		}}}
	}
	data, err := json.Marshal(record(100e6, 1000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		cur       *File
		committed bool
		fail      bool
	}{
		{"within tolerance", record(95e6, 1090), true, false},
		{"allocs rose past tolerance", record(100e6, 1200), true, true},
		{"fresh run, allocs rose", record(100e6, 1200), false, true},
		{"fresh run, allocs fell to zero", record(100e6, 0), false, false},
		{"committed, slower", record(10e6, 1000), true, true},
		{"fresh run, slower", record(10e6, 1000), false, false},
	} {
		err := gate(c.cur, path, 0.10, c.committed)
		if (err != nil) != c.fail {
			t.Errorf("%s: gate error = %v, want failure %v", c.name, err, c.fail)
		}
	}
}

// TestParseMergesRepeatedRuns: `go test -count N` prints one line per
// run; they fold into one entry per benchmark, in first-seen order, with
// iterations summed and each metric the median of the runs.
func TestParseMergesRepeatedRuns(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkA-2   3   100 ns/op   10 sim_cycles/s   7 allocs/op",
		"BenchmarkB-2   3   500 ns/op   50 sim_cycles/s",
		"BenchmarkA-2   3   300 ns/op    4 sim_cycles/s   7 allocs/op",
		"BenchmarkA-2   3   200 ns/op   20 sim_cycles/s   9 allocs/op",
		"BenchmarkB-2   3   700 ns/op   30 sim_cycles/s",
	}, "\n")
	f, err := parse(strings.NewReader(in), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Bench{
		{Name: "A", Iterations: 9, Metrics: map[string]float64{"ns/op": 200, "sim_cycles/s": 10, "allocs/op": 7}},
		{Name: "B", Iterations: 6, Metrics: map[string]float64{"ns/op": 600, "sim_cycles/s": 40}},
	}
	if !reflect.DeepEqual(f.Benchmarks, want) {
		t.Errorf("merged = %+v, want %+v", f.Benchmarks, want)
	}
}
