package sim_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/uarch"
	"repro/sim"
)

const (
	testBench = "gzipx"
	testLen   = 600_000
)

func testProg(t testing.TB) *program.Program {
	t.Helper()
	spec, err := program.ByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Generate(spec, testLen)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameMeasurement asserts the measurement halves of two results are
// bit-identical (wall-clock fields are excluded: they legitimately
// differ run to run).
func sameMeasurement(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Units, want.Units) {
		t.Fatalf("%s: units differ: got %d units, want %d", label, len(got.Units), len(want.Units))
	}
	if got.PopulationUnits != want.PopulationUnits ||
		got.MeasuredInsts != want.MeasuredInsts ||
		got.WarmingInsts != want.WarmingInsts {
		t.Fatalf("%s: accounting differs: got (%d,%d,%d), want (%d,%d,%d)", label,
			got.PopulationUnits, got.MeasuredInsts, got.WarmingInsts,
			want.PopulationUnits, want.MeasuredInsts, want.WarmingInsts)
	}
}

// TestPlainBitIdentical pins Session.Run's plain engine mode to the
// pre-refactor smarts entry points at several worker counts.
func TestPlainBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 80, smarts.FunctionalWarming, 0)
	want, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, workers := range []int{1, 3} {
		rep, err := sess.Run(context.Background(), sim.NewRequest(testBench,
			sim.Length(testLen), sim.Units(80), sim.Workers(workers)))
		if err != nil {
			t.Fatal(err)
		}
		sameMeasurement(t, "engine", rep.Result(), want)
	}
}

// TestSerialLoopBitIdentical pins the SerialLoop mode to the classic
// in-place serial path.
func TestSerialLoopBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 60, smarts.FunctionalWarming, 0)
	want, err := smarts.SerialLoop(context.Background(), p, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.Run(context.Background(), sim.NewRequest(testBench,
		sim.Length(testLen), sim.Units(60), sim.SerialLoop()))
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "serial", rep.Result(), want)
}

// TestPhasesBitIdentical pins multi-offset requests to
// smarts.RunSampledPhasesContext, offset by offset.
func TestPhasesBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 60, smarts.FunctionalWarming, 0)
	js := []uint64{0, 2, 4}
	want, err := smarts.RunSampledPhasesContext(context.Background(), p, cfg, plan, js, engine.Options{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.Run(context.Background(), sim.NewRequest(testBench,
		sim.Length(testLen), sim.Units(60), sim.Phases(js...), sim.Workers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(js) {
		t.Fatalf("got %d phase results, want %d", len(rep.Results), len(js))
	}
	for i := range js {
		sameMeasurement(t, "phase", rep.Results[i], want[i])
	}
}

// TestProcedureBitIdentical pins procedure requests to
// smarts.RunProcedureWith over the engine, both steps.
func TestProcedureBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	pc := smarts.DefaultProcedure(cfg, 60)
	pc.Eps = 0.05
	want, err := smarts.RunProcedureWith(context.Background(), p, cfg, pc,
		func(ctx context.Context, _ string, plan smarts.Plan) (*smarts.Result, error) {
			return smarts.RunSampledContext(ctx, p, cfg, plan, engine.Options{Workers: 2})
		})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.Run(context.Background(), sim.NewRequest(testBench,
		sim.Length(testLen), sim.Units(60), sim.Workers(2), sim.Calibrate(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Procedure
	if pr == nil {
		t.Fatal("no procedure result")
	}
	sameMeasurement(t, "initial", pr.Initial, want.Initial)
	if (pr.Tuned == nil) != (want.Tuned == nil) {
		t.Fatalf("tuned-run presence differs: sim %v, smarts %v", pr.Tuned != nil, want.Tuned != nil)
	}
	if pr.Tuned != nil {
		sameMeasurement(t, "tuned", pr.Tuned, want.Tuned)
		if pr.NTuned != want.NTuned {
			t.Fatalf("NTuned: got %d want %d", pr.NTuned, want.NTuned)
		}
	}
	if pr.Final() != want.Final() {
		t.Fatalf("final estimate: got %+v want %+v", pr.Final(), want.Final())
	}
}

// TestStoreBitIdentical pins store-backed runs to storeless runs and
// checks the second run reuses the sweep.
func TestStoreBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 80, smarts.FunctionalWarming, 0)
	want, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open(sim.WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req := func() *sim.Request {
		return sim.NewRequest(testBench, sim.Length(testLen), sim.Units(80), sim.Workers(2))
	}
	first, err := sess.Run(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if first.Result().SweepCached {
		t.Fatal("first run claims a cached sweep on a cold store")
	}
	sameMeasurement(t, "cold store", first.Result(), want)

	second, err := sess.Run(context.Background(), req())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Result().SweepCached {
		t.Fatal("second run did not reuse the stored sweep")
	}
	sameMeasurement(t, "warm store", second.Result(), want)
}

// TestExperimentMatchesRegistry pins experiment requests to the
// experiments registry output.
func TestExperimentMatchesRegistry(t *testing.T) {
	var buf bytes.Buffer
	ec := experiments.NewContext(experiments.Tiny)
	if err := experiments.Run(context.Background(), "fig4", ec, uarch.Config8Way(), &buf); err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rep, err := sess.Run(context.Background(),
		sim.NewExperiment("fig4", sim.AtScale("tiny"), sim.SerialLoop()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExperimentOutput != buf.String() {
		t.Fatalf("experiment output differs:\nsim:\n%s\nregistry:\n%s", rep.ExperimentOutput, buf.String())
	}
}

// TestRequestValidation covers the request sanity checks.
func TestRequestValidation(t *testing.T) {
	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, req := range []*sim.Request{
		nil,
		{},
		sim.NewRequest(""),
		sim.NewRequest("gzipx", sim.Calibrate(0.03), sim.Phases(0, 1)),
		sim.NewExperiment("fig4", func(r *sim.Request) { r.Workload = "gzipx" }),
		sim.NewRequest("gzipx", sim.Confidence(1.5)),
		sim.NewRequest("gzipx", sim.Procedure(sim.ProcedureSpec{Alpha: -1})),
		sim.NewRequest("gzipx", sim.Calibrate(-0.05)),                 // would panic sizing the tuned run
		sim.NewRequest("gzipx", sim.Calibrate(math.NaN())),            // would size it to the population
		sim.NewRequest("gzipx", sim.Units(60), sim.Phases(1_000_000)), // offset >= interval
	} {
		if _, err := sess.Run(context.Background(), req); err == nil {
			t.Fatalf("request %+v unexpectedly accepted", req)
		}
	}
	if _, err := sess.Run(context.Background(), sim.NewRequest("no-such-bench")); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestClosedSession checks Close gates new runs.
func TestClosedSession(t *testing.T) {
	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, err := sess.Run(context.Background(), sim.NewRequest(testBench)); err == nil {
		t.Fatal("closed session accepted a run")
	}
}

// TestKeyframeOptionBitIdentical pins the WithKeyframe contract: the
// keyframe interval changes only the checkpoint encoding, never the
// measurement — every interval (full snapshots, tight chains, one long
// chain) reports bit-identical results.
func TestKeyframeOptionBitIdentical(t *testing.T) {
	var want *sim.Report
	for _, kf := range []int{0, 1, 3, 64} {
		sess, err := sim.Open(sim.WithWorkers(2), sim.WithKeyframe(kf))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run(context.Background(),
			sim.NewRequest(testBench, sim.Length(testLen), sim.Units(60)))
		sess.Close()
		if err != nil {
			t.Fatalf("keyframe %d: %v", kf, err)
		}
		if want == nil {
			want = rep
			continue
		}
		sameMeasurement(t, "keyframe interval", rep.Result(), want.Result())
	}
	if _, err := sim.Open(sim.WithKeyframe(-1)); err == nil {
		t.Fatal("negative keyframe accepted")
	}
}
