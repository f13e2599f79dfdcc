package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/program"
	"repro/sim"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) and statistics.median(xs) in Python.
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{2, 4, 4, 5, 7, 9, 11, 12}, 4, 6, 10.5},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.median, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
	if got := (summary{Median: 4, Q1: 3, Q3: 5}).spread(); got != 0.5 {
		t.Errorf("spread = %v, want 0.5", got)
	}
}

func TestHighPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the function must sort
		}
		return xs
	}
	if _, _, ok := highPercentile(seq(19)); ok {
		t.Error("19 samples: want no high percentile")
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{{20, 10, 50}, {100, 90, 90}, {1000, 990, 99}} {
		v, pct, ok := highPercentile(seq(c.n))
		if !ok || v != c.value || pct != c.pct {
			t.Errorf("%d samples: got value %v p%v ok=%v, want %v p%v", c.n, v, pct, ok, c.value, c.pct)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},      // root
		{ID: 1, Parent: 0, Start: 10 * ms, End: 40 * ms},  // child with a child of its own
		{ID: 2, Parent: 1, Start: 15 * ms, End: 25 * ms},  // grandchild: counts against 1 only
		{ID: 3, Parent: 0, Start: 50 * ms, End: 70 * ms},  // sibling
		{ID: 4, Parent: 0, Start: 60 * ms, End: 80 * ms},  // sibling overlapping 3: covered once
		{ID: 5, Parent: 0, Start: 95 * ms, End: 120 * ms}, // runs past its parent: clipped
	}
	want := []time.Duration{100*ms - 30*ms - 30*ms - 5*ms, 20 * ms, 10 * ms, 20 * ms, 20 * ms, 25 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("req")
	outer := tr.begin("outer")
	if _, err := tr.timed("inner", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 || tr.spans[1].Request != "req" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &rows); err != nil || len(rows) != 2 || rows[1]["name"] != "inner" {
		t.Fatalf("trace file: %v %v", err, rows)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	g := &golden{
		References: map[string]float64{"gccx/insts=1/8-way": 2.9076266754830757},
		Digests:    map[string]string{"w/gccx/insts=1/units=2/j=3": "cpi=400910ea3b0342fa units=81"},
	}
	path := filepath.Join(t.TempDir(), goldenFile)
	if err := g.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := &golden{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.References["gccx/insts=1/8-way"] != 2.9076266754830757 || back.Digests["w/gccx/insts=1/units=2/j=3"] != g.Digests["w/gccx/insts=1/units=2/j=3"] {
		t.Errorf("round trip lost data: %+v", back)
	}
	// Writing the same golden again must not change a byte.
	if err := back.write(path); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
		t.Error("rewriting an unchanged golden changed the file")
	}

	// The digest separates reports that differ in the last bit of an
	// estimate or in one instruction of the accounting.
	rep := func(cpi float64, fastfwd uint64) *sim.Report {
		return &sim.Report{
			Results: []*sim.Result{{Units: make([]sim.UnitResult, 3), MeasuredInsts: 3000, WarmingInsts: 6000, FastFwdInsts: fastfwd}},
			CPI:     sim.Estimate{Mean: cpi, RelCI: 0.25}, EPI: sim.Estimate{Mean: 8},
		}
	}
	base := digest(rep(1.5, 100))
	if base != digest(rep(1.5, 100)) {
		t.Error("digest of equal reports differs")
	}
	if base == digest(rep(math.Nextafter(1.5, 2), 100)) || base == digest(rep(1.5, 101)) {
		t.Error("digest does not separate differing reports")
	}
	if !strings.Contains(base, "units=3") {
		t.Errorf("digest %q lacks the unit count", base)
	}
}

func TestCommittedGoldenCoversEveryWorkload(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		found := false
		for k := range gold.Digests {
			if strings.HasPrefix(k, w.name+"/"+w.bench+"/") {
				found = true
			}
		}
		if !found {
			t.Errorf("golden.json has no digest for %s", w.name)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	exact := metricDef{name: "cpi", better: "lower", exact: true}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 20} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.90, Q3: m * 1.10, N: 20} }
	cases := []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"equal", lower, tight(1), tight(1), verdictOK},
		{"worse within bound", lower, tight(1), tight(1.09), verdictOK},
		{"improved a lot", lower, tight(1), tight(0.5), verdictOK},
		{"worse beyond bound", lower, tight(1), tight(1.2), verdictRegressed},
		{"worse beyond bound, baseline noisy", lower, wide(1), tight(1.2), verdictUnresolved},
		{"worse beyond bound, candidate noisy", lower, tight(1), wide(1.2), verdictUnresolved},
		{"noisy but within bound", lower, wide(1), wide(1.05), verdictOK},
		{"higher is better, dropped", higher, tight(100), tight(80), verdictRegressed},
		{"higher is better, rose", higher, tight(100), tight(150), verdictOK},
		{"exact, same", exact, tight(2.5), tight(2.5), verdictOK},
		{"exact, last digit", exact, tight(2.5), tight(2.5000001), verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRunsReportsRegression(t *testing.T) {
	run := func(wall, cpi float64) *runFile {
		return &runFile{Results: []*result{{Workload: "w", Metrics: map[string]value{
			"wall_s":      {Unit: "s", summary: summary{Median: wall, Q1: wall, Q3: wall, N: 11}},
			"cpi_err_pct": one("%", cpi),
		}}}}
	}
	var out bytes.Buffer
	if compareRuns(&out, run(1, 2), run(1.05, 2)) {
		t.Errorf("5%% slower within a 10%% bound flagged as regressed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), verdictOK) {
		t.Errorf("comparison output lacks the metric or its verdict:\n%s", out.String())
	}
	if !compareRuns(&out, run(1, 2), run(1.5, 2)) {
		t.Error("50% slower not flagged")
	}
	if !compareRuns(&out, run(1, 2), run(1, 2.1)) {
		t.Error("changed simulated statistic not flagged")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repo's root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, g, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, g, d)
		}
	}
}

// tiny returns the workloads on streams of 200k instructions or less, with
// few enough units that a request takes a few hundredths of a second.
func tiny() []workload {
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		ws[i].length, ws[i].units = 200_000, 20
		switch {
		case ws[i].bench == "mcfx":
			ws[i].length, ws[i].units = 50_000, 4 // CPI ~33: a unit costs ten times gccx's
		case ws[i].shape == procedure:
			ws[i].length = 100_000 // the tuned step measures every unit of so short a stream
		}
	}
	return ws
}

// tinyGolden holds the tiny programs' references and no digests, so a run
// checks its requests against one another, as it does for a seed the
// committed golden lacks.
func tinyGolden(t *testing.T) *golden {
	gold := &golden{References: map[string]float64{}, Digests: map[string]string{}}
	for _, w := range tiny() {
		spec, err := program.ByName(w.bench)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := program.Generate(spec, w.length)
		if err != nil {
			t.Fatal(err)
		}
		if gold.References[referenceKey(prog, sim.Config8Way())], err = gold.reference(prog, sim.Config8Way()); err != nil {
			t.Fatal(err)
		}
	}
	return gold
}

func TestSmokeAllWorkloadsEndToEnd(t *testing.T) {
	gold := tinyGolden(t)
	for _, w := range tiny() {
		r, err := runEndToEnd(context.Background(), w, 3, 0, t.TempDir(), gold)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Attempted < minRequests || r.Failed != 0 || r.Metrics["failed_frac"].Median != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, r.Attempted, r.Failed)
		}
		line, err := r.contractLine(endToEnd)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if v := r.Metrics[d.name]; v.Median <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement (%s)", w.name, d.name, v.Median, line)
			}
		}
		if (w.shape == coldStore || w.shape == storeHit) != (r.Metrics["store_mb"].Median > 0) {
			t.Errorf("%s: store_mb = %v", w.name, r.Metrics["store_mb"].Median)
		}
	}
}

func TestSmokeLayerPass(t *testing.T) {
	if testing.Short() {
		t.Skip("the end-to-end smoke covers the workloads; the layer pass adds two seconds")
	}
	w := tiny()[0]
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	r, err := runLayers(context.Background(), w, 3, 0, t.TempDir(), tinyGolden(t), tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Errorf("%d of %d requests failed", r.Failed, r.Attempted)
	}
	if _, err := r.contractLine(perLayer); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"functional.ns_per_inst", "core.cpi", "engine.run_w1_s", "dist.rpc_count", "store_mb", "model.sum_over_wall"} {
		if r.Metrics[name].Median <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, r.Metrics[name].Median)
		}
	}
	var spans []span
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"request", "sim.run", "layers", "program.generate", "functional", "warmer", "checkpoint.capture",
		"checkpoint.encode", "store.save", "store.load", "checkpoint.decode", "checkpoint.materialize", "core", "engine.replay",
		"engine.run", "dist.run"} {
		if !seen[name] {
			t.Errorf("trace lacks a %q span", name)
		}
	}
}
