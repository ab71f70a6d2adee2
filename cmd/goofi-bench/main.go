// Command goofi-bench converts `go test -bench` output into a
// machine-readable JSON summary and compares two such summaries.
//
// Convert (each benchmark's repeated samples are averaged):
//
//	go test -bench . -benchmem -count 6 . > bench.txt
//	goofi-bench -in bench.txt -out BENCH_campaign.json
//
// Compare, flagging regressions beyond the tolerance (default 10%) with a
// non-zero exit so CI can gate on it:
//
//	goofi-bench -diff old.json [-tolerance 10] [-metrics ns,b,allocs] new.json
//
// The summary also records the host the benchmarks ran on (the goos, goarch,
// cpu and nproc header lines, and GOMAXPROCS from the -N name suffix); -diff warns
// on standard error when the two hosts differ or either is unknown, since
// timings from different machines do not compare.
//
// -metrics selects which per-op metrics gate (all by default). Use
// `-metrics ns` when the two runs used very different iteration counts:
// one-off setup (minting worker targets, a forked campaign's golden run)
// amortises into B/op and allocs/op, so allocation metrics only compare
// meaningfully between runs of similar length.
//
// The Makefile wires these as `make bench` and `make benchdiff`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's averaged result.
type Benchmark struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Host is the machine a summary was measured on. GOMAXPROCS is 0 when the
// benchmark names do not agree on one; NProc is 0 when the output carries no
// "nproc:" header line.
type Host struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	NProc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// File is the JSON document goofi-bench reads and writes. Host is absent in
// summaries written before it was recorded.
type File struct {
	Host       *Host       `json:"host,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "goofi-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("goofi-bench", flag.ContinueOnError)
	in := fs.String("in", "", "go test -bench output to parse ('-' for stdin)")
	out := fs.String("out", "", "write the JSON summary to this file (default stdout)")
	diff := fs.String("diff", "", "compare this baseline JSON against a second JSON argument")
	tolerance := fs.Float64("tolerance", 10, "regression threshold for -diff, percent slower/bigger")
	metrics := fs.String("metrics", "ns,b,allocs", "comma-separated metrics gated by -diff: ns, b, allocs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-diff needs the new summary too: goofi-bench -diff old.json new.json")
		}
		gate := map[string]bool{}
		for _, m := range strings.Split(*metrics, ",") {
			switch m = strings.TrimSpace(m); m {
			case "ns", "b", "allocs":
				gate[m] = true
			case "":
			default:
				return fmt.Errorf("unknown -metrics entry %q (want ns, b, allocs)", m)
			}
		}
		if len(gate) == 0 {
			return fmt.Errorf("-metrics selects nothing to gate")
		}
		return diffFiles(*diff, fs.Arg(0), *tolerance, gate, stdout, stderr)
	}
	if *in == "" {
		return fmt.Errorf("-in is required (or use -diff)")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	f, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("%s contains no benchmark result lines", *in)
	}
	doc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "" {
		_, err := stdout.Write(doc)
		return err
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d benchmarks to %s\n", len(f.Benchmarks), *out)
	return nil
}

// parseBench extracts benchmark result lines ("BenchmarkX-8  16  123 ns/op
// 45 B/op  6 allocs/op") and averages repeated samples per name. The host
// comes from the "goos:", "goarch:", "cpu:" and "nproc:" header lines and the -N
// GOMAXPROCS suffix the names share; it is nil when none of those appear.
func parseBench(r io.Reader) (File, error) {
	type acc struct {
		n                 int
		ns, bytes, allocs float64
	}
	byName := map[string]*acc{}
	var order []string
	var host Host
	procs := -1 // GOMAXPROCS suffix shared by every name so far; 0 if they differ
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ":"); ok {
			switch val = strings.TrimSpace(val); key {
			case "goos":
				host.GOOS = val
			case "goarch":
				host.GOARCH = val
			case "cpu":
				host.CPU = val
			case "nproc":
				host.NProc, _ = strconv.Atoi(val)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // "Benchmark..." headline without an iteration count
		}
		if p := procsSuffix(fields[0]); procs == -1 {
			procs = p
		} else if p != procs {
			procs = 0
		}
		a := byName[fields[0]]
		if a == nil {
			a = &acc{}
			byName[fields[0]] = a
			order = append(order, fields[0])
		}
		a.n++
		// The remaining fields are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return File{}, fmt.Errorf("benchmark line %q: %w", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns += v
			case "B/op":
				a.bytes += v
			case "allocs/op":
				a.allocs += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	var f File
	if procs > 0 {
		host.GOMAXPROCS = procs
	}
	if host != (Host{}) {
		f.Host = &host
	}
	f.Benchmarks = make([]Benchmark, 0, len(order))
	for _, name := range order {
		a := byName[name]
		n := float64(a.n)
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Name:        name,
			Samples:     a.n,
			NsPerOp:     a.ns / n,
			BytesPerOp:  a.bytes / n,
			AllocsPerOp: a.allocs / n,
		})
	}
	return f, nil
}

// procsSuffix returns the GOMAXPROCS that go test appended to a benchmark
// name as "-N", or 1 when there is none: go test omits it at GOMAXPROCS 1.
func procsSuffix(name string) int {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// diffFiles compares two JSON summaries and reports per-benchmark changes.
// Any gated metric more than tolerance percent worse in the new file is
// flagged as a regression and makes the exit status non-zero. A host
// mismatch is only warned about on warn: it does not change the verdict.
func diffFiles(oldPath, newPath string, tolerance float64, gate map[string]bool, w, warn io.Writer) error {
	oldF, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadFile(newPath)
	if err != nil {
		return err
	}
	if oldF.Host == nil || newF.Host == nil || *oldF.Host != *newF.Host {
		fmt.Fprintf(warn, "goofi-bench: warning: %s was measured on %s, %s on %s; timings from different hosts do not compare\n",
			oldPath, oldF.Host, newPath, newF.Host)
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldF.Benchmarks {
		oldBy[b.Name] = b
	}
	var regressions []string
	fmt.Fprintf(w, "%-44s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "change")
	names := make([]string, 0, len(newF.Benchmarks))
	newBy := map[string]Benchmark{}
	for _, b := range newF.Benchmarks {
		names = append(names, b.Name)
		newBy[b.Name] = b
	}
	sort.Strings(names)
	for _, name := range names {
		nb := newBy[name]
		ob, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f %8s\n", name, "-", nb.NsPerOp, "new")
			continue
		}
		flag := ""
		for _, m := range []struct {
			key, label string
			old, new   float64
		}{
			{"ns", "ns/op", ob.NsPerOp, nb.NsPerOp},
			{"b", "B/op", ob.BytesPerOp, nb.BytesPerOp},
			{"allocs", "allocs/op", ob.AllocsPerOp, nb.AllocsPerOp},
		} {
			if !gate[m.key] {
				continue
			}
			if p := pctChange(m.old, m.new); p > tolerance {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %+.1f%% (%.1f -> %.1f)", name, m.label, p, m.old, m.new))
				flag = "  REGRESSION"
			}
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %+7.1f%%%s\n",
			name, ob.NsPerOp, nb.NsPerOp, pctChange(ob.NsPerOp, nb.NsPerOp), flag)
	}
	for name, ob := range oldBy {
		if _, ok := newBy[name]; !ok {
			fmt.Fprintf(w, "%-44s %14.0f %14s %8s\n", name, ob.NsPerOp, "-", "gone")
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(w, "\n%d regression(s) beyond %.0f%%:\n", len(regressions), tolerance)
		for _, r := range regressions {
			fmt.Fprintf(w, "  %s\n", r)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(regressions))
	}
	fmt.Fprintf(w, "\nno regressions beyond %.0f%%\n", tolerance)
	return nil
}

func loadFile(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return File{}, fmt.Errorf("%s: no benchmarks", path)
	}
	return f, nil
}

// String describes the host in one line, for the -diff warning.
func (h *Host) String() string {
	if h == nil {
		return "an unrecorded host"
	}
	return fmt.Sprintf("%s/%s %q nproc=%d GOMAXPROCS=%d", h.GOOS, h.GOARCH, h.CPU, h.NProc, h.GOMAXPROCS)
}

// pctChange is the relative increase of new over old in percent; 0 when old
// is 0 (nothing meaningful to compare against).
func pctChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}
