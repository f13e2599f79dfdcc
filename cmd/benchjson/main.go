// Command benchjson runs the repository's Go benchmarks and writes the
// results as machine-readable JSON, so CI can archive the performance
// trajectory (units/s, engine speedups, allocs/op) next to the human-
// readable bench log.
//
// Usage:
//
//	benchjson                                  # full suite -> BENCH_pipeline.json
//	benchjson -bench 'EngineReplay' -out BENCH_engine.json
//	benchjson -pkgs ./internal/cache,./internal/mem -benchtime 100x
//
// The output schema is one object with a `benchmarks` array; each entry
// carries the parsed standard columns (iterations, ns/op, B/op,
// allocs/op) plus every custom metric the benchmark reported via
// b.ReportMetric (speedupX@4workers, units/s, ...), keyed exactly as
// printed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	BenchRegexp string      `json:"bench_regexp"`
	BenchTime   string      `json:"benchtime"`
	Packages    []string    `json:"packages"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_pipeline.json", "output JSON path")
		benchRe    = flag.String("bench", ".", "benchmark name regexp (go test -bench)")
		benchtime  = flag.String("benchtime", "1x", "per-benchmark budget (go test -benchtime)")
		pkgs       = flag.String("pkgs", "./...", "comma-separated package patterns to benchmark")
		timeout    = flag.String("timeout", "30m", "go test timeout")
		echo       = flag.Bool("echo", true, "mirror the raw go test output to stderr")
		baseline   = flag.String("baseline", "", "baseline report to compare against (a previous output of this tool)")
		regress    = flag.String("regress", "", "comma-separated lower-is-better regression gates as metric:maxPct (e.g. 'snapshotBytes/unit:10'); checked against -baseline after the run")
		regressMin = flag.String("regress-min", "", "comma-separated higher-is-better regression gates as metric:maxPct (e.g. 'units/s:10'): fail when the metric drops more than maxPct below the baseline")
		warnOnly   = flag.Bool("regress-warn", false, "report tripped regression gates as warnings instead of failing")
	)
	flag.Parse()

	gates, err := parseGates(*regress, false)
	if err != nil {
		fatal(err)
	}
	minGates, err := parseGates(*regressMin, true)
	if err != nil {
		fatal(err)
	}
	gates = append(gates, minGates...)

	patterns := strings.Split(*pkgs, ",")
	args := []string{"test", "-run", "^$", "-bench", *benchRe,
		"-benchtime", *benchtime, "-benchmem", "-timeout", *timeout}
	args = append(args, patterns...)

	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if *echo {
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	}
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()

	benches := parse(&buf)
	if runErr != nil && len(benches) == 0 {
		fatal(fmt.Errorf("go test failed with no parsable output: %w", runErr))
	}

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchRegexp: *benchRe,
		BenchTime:   *benchtime,
		Packages:    patterns,
		Benchmarks:  benches,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark results to %s\n", len(benches), *out)
	if runErr != nil {
		fatal(fmt.Errorf("go test reported failure: %w", runErr))
	}

	if *baseline != "" && len(gates) > 0 {
		violations, err := checkRegressions(*baseline, benches, gates)
		if err != nil {
			fatal(err)
		}
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", v)
		}
		if len(violations) > 0 && !*warnOnly {
			os.Exit(1)
		}
	}
}

// gate is one regression bound. Lower-is-better gates (-regress) allow
// the metric to grow at most maxPct percent over the baseline;
// higher-is-better gates (-regress-min) allow it to drop at most
// maxPct percent below. A gate scoped to one benchmark
// ("BenchmarkCaptureDense=units/s:10") ignores the metric elsewhere —
// several benchmarks report units/s, but only some are worth gating.
type gate struct {
	bench  string // empty = every benchmark reporting the metric
	metric string
	maxPct float64
	min    bool // higher-is-better: fire on a drop, not a rise
}

func parseGates(spec string, min bool) ([]gate, error) {
	if spec == "" {
		return nil, nil
	}
	flagName := "-regress"
	if min {
		flagName = "-regress-min"
	}
	var gates []gate
	for _, part := range strings.Split(spec, ",") {
		metric, pct, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad %s entry %q: want [Benchmark=]metric:maxPct", flagName, part)
		}
		p, err := strconv.ParseFloat(pct, 64)
		if err != nil || p < 0 {
			return nil, fmt.Errorf("bad %s bound %q", flagName, pct)
		}
		bench, metric, _ := cutLast(metric, "=")
		gates = append(gates, gate{bench: bench, metric: metric, maxPct: p, min: min})
	}
	return gates, nil
}

// cutLast splits s on the last sep; found=false leaves everything in
// the suffix (no benchmark scope).
func cutLast(s, sep string) (prefix, suffix string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return "", s, false
}

// checkRegressions compares the fresh results against the baseline
// report, benchmark by benchmark, for each gated metric. Benchmarks or
// metrics absent from either side are skipped — a gate only fires on a
// genuine same-benchmark, same-metric move beyond its bound, in the
// gate's bad direction (an increase for -regress, a drop for
// -regress-min). Deterministic byte counts take tight bounds;
// throughput gates need slack for runner noise.
func checkRegressions(baselinePath string, benches []Benchmark, gates []gate) ([]string, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	baseMetric := make(map[string]float64)
	for _, b := range base.Benchmarks {
		for name, val := range b.Metrics {
			baseMetric[b.Package+"\x00"+b.Name+"\x00"+name] = val
		}
	}
	var violations []string
	for _, b := range benches {
		for _, g := range gates {
			if g.bench != "" && g.bench != b.Name {
				continue
			}
			got, ok := b.Metrics[g.metric]
			if !ok {
				continue
			}
			want, ok := baseMetric[b.Package+"\x00"+b.Name+"\x00"+g.metric]
			if !ok || want <= 0 {
				continue
			}
			if g.min {
				if got < want*(1-g.maxPct/100) {
					violations = append(violations, fmt.Sprintf(
						"%s %s: %.4g vs baseline %.4g (%.1f%%, allowed -%.0f%%)",
						b.Name, g.metric, got, want, (got/want-1)*100, g.maxPct))
				}
			} else if got > want*(1+g.maxPct/100) {
				violations = append(violations, fmt.Sprintf(
					"%s %s: %.4g vs baseline %.4g (+%.1f%%, allowed +%.0f%%)",
					b.Name, g.metric, got, want, (got/want-1)*100, g.maxPct))
			}
		}
	}
	return violations, nil
}

// parse extracts benchmark lines from go test output. A result line has
// the shape:
//
//	BenchmarkName-8   123456   42.0 ns/op   0 B/op   0 allocs/op   3.14 units/s
//
// i.e. a name, an iteration count, then (value, unit) pairs. Package
// attribution comes from the "pkg: ..." header go test prints before
// each package's benchmarks.
func parse(buf *bytes.Buffer) []Benchmark {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Package: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		out = append(out, b)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
