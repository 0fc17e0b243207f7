package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// endToEndDef is one end_to_end entry of BENCHMARK.json.
type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two sets of untraced runs, as written by --out:
// for every workload and end-to-end metric it prints both sides' median
// and quartiles and a verdict against the metric's bound. It exits 1 when
// any row is worse, unresolved or missing.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [--bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var bench struct {
		EndToEnd []endToEndDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var sets [2]map[[2]string][]float64
	for i := range sets {
		if sets[i], err = loadRuns(fs.Arg(i)); err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
	}

	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tB vs A\tverdict")
	for _, w := range workloads {
		for _, d := range bench.EndToEnd {
			key := [2]string{w.name, d.Name}
			a, b := sets[0][key], sets[1][key]
			v := verdict(a, b, d.Better == "higher", d.Bound)
			if v != "better" && v != "within bound" {
				code = 1
			}
			change := "-"
			if len(a) > 0 && len(b) > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(b)-median(a))/median(a))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s (bound %g%%)\n", w.name, d.Name, summary(a, d.Unit), summary(b, d.Unit), change, v, 100*d.Bound)
		}
	}
	tw.Flush()
	return code
}

// loadRuns reads a results file and groups the untraced runs' metric
// values by (workload, metric).
func loadRuns(path string) (map[[2]string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[[2]string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		for name, m := range rec.Metrics {
			key := [2]string{rec.Workload, name}
			out[key] = append(out[key], m.Value)
		}
	}
	return out, sc.Err()
}

func summary(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s n=%d", median(xs), q1, q3, unit, len(xs))
}

// verdict judges set b against set a for one metric. Where either side's
// interquartile spread exceeds the bound, the medians cannot resolve a
// change that small: the row is unresolved unless every run of b beats
// every run of a. Otherwise a median that moved by more than the bound is
// better or worse, and anything less is within bound.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	worse := (median(b) - median(a)) / median(a)
	if higherBetter {
		worse = -worse
	}
	if max(relSpread(a), relSpread(b)) > bound {
		if higherBetter && slices.Min(b) > slices.Max(a) || !higherBetter && slices.Max(b) < slices.Min(a) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within bound"
}
