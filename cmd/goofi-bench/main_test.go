package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: goofi
cpu: Some CPU @ 2.00GHz
BenchmarkSCIFICampaignParallel/w4-8   	      16	  1000000 ns/op	    2048 B/op	      12 allocs/op
BenchmarkSCIFICampaignParallel/w4-8   	      16	  3000000 ns/op	    4096 B/op	      12 allocs/op
BenchmarkInjectionScanVsMemory-8      	     100	    50000 ns/op	     128 B/op	       3 allocs/op
PASS
ok  	goofi	1.234s
`

func TestParseBenchAverages(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	benches := f.Benchmarks
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(benches), benches)
	}
	b := benches[0]
	if b.Name != "BenchmarkSCIFICampaignParallel/w4-8" {
		t.Errorf("name = %q", b.Name)
	}
	if b.Samples != 2 {
		t.Errorf("samples = %d, want 2", b.Samples)
	}
	if b.NsPerOp != 2000000 {
		t.Errorf("ns/op = %v, want mean 2000000", b.NsPerOp)
	}
	if b.BytesPerOp != 3072 {
		t.Errorf("B/op = %v, want mean 3072", b.BytesPerOp)
	}
	if b.AllocsPerOp != 12 {
		t.Errorf("allocs/op = %v, want 12", b.AllocsPerOp)
	}
	if benches[1].Name != "BenchmarkInjectionScanVsMemory-8" || benches[1].NsPerOp != 50000 {
		t.Errorf("second benchmark = %+v", benches[1])
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	f, err := parseBench(strings.NewReader("PASS\nok  \tgoofi\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 0 || f.Host != nil {
		t.Fatalf("parsed %+v from noise, want nothing", f)
	}
}

func TestRunConvertWritesJSON(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", out}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("JSON has %d benchmarks, want 2", len(f.Benchmarks))
	}
	for _, b := range f.Benchmarks {
		if b.Name == "" || b.NsPerOp <= 0 {
			t.Errorf("incomplete record %+v", b)
		}
	}
}

func writeSummary(t *testing.T, path string, benches []Benchmark) {
	t.Helper()
	writeFile(t, path, File{Benchmarks: benches})
}

func writeFile(t *testing.T, path string, f File) {
	t.Helper()
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeSummary(t, oldPath, []Benchmark{
		{Name: "BenchmarkA-8", Samples: 1, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 5},
		{Name: "BenchmarkB-8", Samples: 1, NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 5},
	})
	writeSummary(t, newPath, []Benchmark{
		{Name: "BenchmarkA-8", Samples: 1, NsPerOp: 1500, BytesPerOp: 100, AllocsPerOp: 5}, // +50% ns/op
		{Name: "BenchmarkB-8", Samples: 1, NsPerOp: 1050, BytesPerOp: 100, AllocsPerOp: 5}, // +5%: within tolerance
	})

	var buf bytes.Buffer
	err := run([]string{"-diff", oldPath, newPath}, &buf, io.Discard)
	if err == nil {
		t.Fatalf("diff with a +50%% regression returned nil error; output:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "BenchmarkA-8") {
		t.Errorf("diff output does not flag BenchmarkA-8:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkB-8: ns/op") {
		t.Errorf("diff flagged BenchmarkB-8 which is within tolerance:\n%s", out)
	}
}

func TestDiffCleanWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	benches := []Benchmark{{Name: "BenchmarkA-8", Samples: 1, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 2}}
	writeSummary(t, oldPath, benches)
	writeSummary(t, newPath, benches)

	var buf bytes.Buffer
	if err := run([]string{"-diff", oldPath, newPath}, &buf, io.Discard); err != nil {
		t.Fatalf("identical summaries reported a regression: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("missing all-clear line:\n%s", buf.String())
	}
}

func TestParseBenchHost(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     *Host
	}{
		{"headers and shared suffix", sampleBench,
			&Host{GOOS: "linux", GOARCH: "amd64", CPU: "Some CPU @ 2.00GHz", GOMAXPROCS: 8}},
		{"GOMAXPROCS 1 drops the suffix",
			"goos: linux\nBenchmarkA/W4 \t 10\t 5 ns/op\nBenchmarkB \t 10\t 5 ns/op\n",
			&Host{GOOS: "linux", GOMAXPROCS: 1}},
		{"nproc header",
			"nproc: 2\ngoos: linux\nBenchmarkA-2 \t 10\t 5 ns/op\n",
			&Host{GOOS: "linux", NProc: 2, GOMAXPROCS: 2}},
		{"suffixes disagree",
			"goos: linux\nBenchmarkA-2 \t 10\t 5 ns/op\nBenchmarkB-4 \t 10\t 5 ns/op\n",
			&Host{GOOS: "linux"}},
	} {
		f, err := parseBench(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Host == nil || *f.Host != *tc.want {
			t.Errorf("%s: host = %v, want %+v", tc.name, f.Host, *tc.want)
		}
	}
}

func TestDiffWarnsOnHostMismatch(t *testing.T) {
	dir := t.TempDir()
	benches := []Benchmark{{Name: "BenchmarkA-2", Samples: 1, NsPerOp: 1000}}
	hostA := &Host{GOOS: "linux", GOARCH: "amd64", CPU: "CPU A", GOMAXPROCS: 2}
	hostB := &Host{GOOS: "linux", GOARCH: "amd64", CPU: "CPU B", GOMAXPROCS: 2}
	paths := map[string]string{}
	for name, h := range map[string]*Host{"a": hostA, "a2": hostA, "b": hostB, "none": nil} {
		paths[name] = filepath.Join(dir, name+".json")
		writeFile(t, paths[name], File{Host: h, Benchmarks: benches})
	}
	for _, tc := range []struct {
		old, new string
		warn     bool
	}{
		{"a", "a2", false},
		{"a", "b", true},
		{"none", "a", true},
		{"a", "none", true},
	} {
		var out, warn bytes.Buffer
		if err := run([]string{"-diff", paths[tc.old], paths[tc.new]}, &out, &warn); err != nil {
			t.Errorf("%s vs %s: host mismatch changed the verdict: %v", tc.old, tc.new, err)
		}
		if got := strings.Contains(warn.String(), "warning"); got != tc.warn {
			t.Errorf("%s vs %s: warned = %v, want %v; stderr %q", tc.old, tc.new, got, tc.warn, warn.String())
		}
		if strings.Contains(out.String(), "warning") {
			t.Errorf("%s vs %s: warning went to stdout:\n%s", tc.old, tc.new, out.String())
		}
	}
}
