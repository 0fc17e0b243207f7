// Command benchlog appends one dated entry to a benchmark history file
// (BENCH_engine.json) from `go test -bench` output on stdin, so the perf
// trajectory across PRs is preserved instead of overwritten.
//
// Usage:
//
//	go test ./internal/sim -bench EngineEvent -benchmem | go run ./cmd/benchlog -file BENCH_engine.json -date 2026-07-27 -note "PR 5"
//
// The file holds a JSON array of runs, newest last:
//
//	[{"date": "...", "note": "...", "benchmarks": [{"benchmark": ..., "ns_per_op": ...}, ...]}, ...]
//
// scripts/bench.sh is the intended caller.
//
// The BenchmarkEngineEventN* occupancy-scaling family additionally records
// a derived events_per_sec column (1e9 / ns_per_op; one op is one simulated
// event). The BenchmarkServe* serving family records the requests_per_sec
// metric emitted by the benchmarks themselves (b.ReportMetric with unit
// "requests/sec" — loopback HTTP requests served per second).
//
// With -check, nothing is appended: the run on stdin is compared against
// the newest entry already in the history, and the command fails when any
// benchmark present in both slowed down by more than -threshold (default
// 10%) in ns/op, with one line per such benchmark that includes the
// observed spread across the best-of-N samples on stdin. Benchmarks new in
// this run pass trivially; benchmarks that disappeared are ignored.
// scripts/ci.sh runs this as the BENCH_GATE.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name       string   `json:"benchmark"`
	NsPerOp    *float64 `json:"ns_per_op"`
	BytesPerOp *float64 `json:"bytes_per_op"`
	AllocsOp   *float64 `json:"allocs_per_op"`
	CompPerSec *float64 `json:"completions_per_sec"`
	// EventsPerSec is derived (1e9 / ns_per_op) for the BenchmarkEngineEventN*
	// occupancy-scaling family, where one op is one simulated event — the
	// events/sec throughput the ROADMAP stretch goal is stated in.
	EventsPerSec *float64 `json:"events_per_sec,omitempty"`
	// ReqPerSec is the "requests/sec" metric the BenchmarkServe* loopback
	// serving benchmarks report via b.ReportMetric — the unit the ISSUE's
	// 100k-req/sec cache-hit serving target is stated in.
	ReqPerSec *float64 `json:"requests_per_sec,omitempty"`
	// samples holds every ns/op observation folded into this best-of-N
	// entry, for spread diagnostics on -check failures. Not recorded.
	samples []float64
}

// engineEventFamily marks the occupancy-scaling benchmarks that get the
// derived events_per_sec column.
func engineEventFamily(name string) bool {
	return strings.HasPrefix(name, "BenchmarkEngineEventN")
}

// Run is one dated benchmark batch.
type Run struct {
	Date       string      `json:"date"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   1234   56.7 ns/op   ..." including
// sub-benchmark names with slashes.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*?)(?:-\d+)?\s`)

func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		fields := strings.Fields(line)
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			val := v
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = &val
			case "B/op":
				b.BytesPerOp = &val
			case "allocs/op":
				b.AllocsOp = &val
			case "completions/sec":
				b.CompPerSec = &val
			case "requests/sec":
				b.ReqPerSec = &val
			}
		}
		if engineEventFamily(b.Name) && b.NsPerOp != nil && *b.NsPerOp > 0 {
			eps := 1e9 / *b.NsPerOp
			b.EventsPerSec = &eps
		}
		out = append(out, b)
	}
	return dedupeFastest(out), sc.Err()
}

// dedupeFastest keeps the fastest (min ns/op) sample per benchmark name,
// preserving first-seen order, so `-count=N` runs record and compare
// best-of-N — the standard way to strip scheduler noise from a gate.
func dedupeFastest(in []Benchmark) []Benchmark {
	byName := make(map[string]int, len(in))
	var out []Benchmark
	for _, b := range in {
		if b.NsPerOp != nil {
			b.samples = []float64{*b.NsPerOp}
		}
		i, seen := byName[b.Name]
		if !seen {
			byName[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		samples := append(out[i].samples, b.samples...)
		if b.NsPerOp != nil && (out[i].NsPerOp == nil || *b.NsPerOp < *out[i].NsPerOp) {
			out[i] = b
		}
		out[i].samples = samples
	}
	return out
}

// spread renders the observed ns/op samples behind a best-of-N entry, so a
// gate trip on a noisy shared box is diagnosable from the CI log alone.
func spread(samples []float64) string {
	if len(samples) < 2 {
		return ""
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return fmt.Sprintf(" [observed %.1f..%.1f ns/op across %d samples]", lo, hi, len(samples))
}

// load reads the existing history. A file that is not a list of runs (an
// unknown field anywhere) is an error, not an empty baseline.
func load(path string) ([]Run, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var runs []Run
	if err := dec.Decode(&runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// check compares the current run against the newest recorded entry and
// returns one line per benchmark whose ns/op slowed down beyond threshold
// (e.g. 0.10 for 10%). ns/op is the one gated column: events_per_sec is
// 1e9/ns_per_op, and the serve benchmarks report requests_per_sec as
// requests (times fanout) over the elapsed time, so either one's ratio
// restates ns/op's, up to ns/op's integer rounding; completions_per_sec is
// derived from ns/op too. B/op and allocs/op are pinned exactly by the test
// suite. Benchmarks missing from either side are skipped — renames and
// additions must not brick CI. Failure lines carry the observed best-of-N
// spread so a noisy-box trip is diagnosable from the log.
func check(last Run, cur []Benchmark, threshold float64) []string {
	prev := make(map[string]Benchmark, len(last.Benchmarks))
	for _, b := range last.Benchmarks {
		prev[b.Name] = b
	}
	var bad []string
	for _, b := range cur {
		base, ok := prev[b.Name]
		if !ok {
			continue
		}
		if b.NsPerOp != nil && base.NsPerOp != nil && *base.NsPerOp > 0 {
			if ratio := *b.NsPerOp / *base.NsPerOp; ratio > 1+threshold {
				bad = append(bad, fmt.Sprintf("%s: %.1f ns/op vs %.1f recorded on %s (%+.1f%%, threshold %+.0f%%)%s",
					b.Name, *b.NsPerOp, *base.NsPerOp, last.Date, (ratio-1)*100, threshold*100, spread(b.samples)))
			}
		}
	}
	return bad
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchlog: ")
	var (
		file      = flag.String("file", "BENCH_engine.json", "benchmark history file to append to")
		date      = flag.String("date", "", "date stamp for this run (required unless -check, e.g. 2026-07-27)")
		note      = flag.String("note", "", "free-form label for this run (e.g. git describe)")
		doCheck   = flag.Bool("check", false, "compare stdin against the newest recorded entry instead of appending")
		threshold = flag.Float64("threshold", 0.10, "with -check: maximum tolerated ns/op slowdown (0.10 = 10%)")
	)
	flag.Parse()
	if !*doCheck && *date == "" {
		log.Fatal("-date is required")
	}
	benches, err := parseBench(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if len(benches) == 0 {
		log.Fatal("no Benchmark lines on stdin")
	}
	runs, err := load(*file)
	if err != nil {
		log.Fatal(err)
	}
	if *doCheck {
		if len(runs) == 0 {
			fmt.Printf("%s has no recorded runs; nothing to compare against\n", *file)
			return
		}
		last := runs[len(runs)-1]
		if bad := check(last, benches, *threshold); len(bad) > 0 {
			for _, line := range bad {
				log.Print(line)
			}
			log.Fatalf("%d benchmark(s) regressed beyond %.0f%% vs the %s entry in %s", len(bad), *threshold*100, last.Date, *file)
		}
		fmt.Printf("%d benchmark(s) within %.0f%% of the %s entry in %s\n", len(benches), *threshold*100, last.Date, *file)
		return
	}
	runs = append(runs, Run{Date: *date, Note: *note, Benchmarks: benches})
	out, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*file, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended %d benchmark(s) to %s (%d run(s) total)\n", len(benches), *file, len(runs))
}
