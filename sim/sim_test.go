package sim_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/freelist"
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

// engineRun runs plan on engine.Run below the session, converted as the
// session converts it: the baseline requests are pinned to.
func engineRun(t *testing.T, p *program.Program, cfg uarch.Config, plan smarts.Plan, workers int) *sim.Result {
	t.Helper()
	er, err := engine.Run(context.Background(), p, cfg, plan.CheckpointParams(), engine.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return smarts.FromEngine(plan, er, er)
}

// TestPlainBitIdentical pins Session.Run's plain engine mode to the
// engine run directly, at several worker counts.
func TestPlainBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 80, smarts.FunctionalWarming, 0)
	want := engineRun(t, p, cfg, plan, 1)

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

// TestPhasesBitIdentical pins multi-offset requests, measured from one
// shared sweep, to dedicated engine runs at each offset.
func TestPhasesBitIdentical(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 60, smarts.FunctionalWarming, 0)
	js := []uint64{0, 2, 4}

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
	for i, j := range js {
		pj := plan
		pj.J = j
		if rep.Results[i].Plan.J != j {
			t.Fatalf("result %d echoes phase %d, want %d", i, rep.Results[i].Plan.J, j)
		}
		sameMeasurement(t, "phase", rep.Results[i], engineRun(t, p, cfg, pj, 2))
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
			return engineRun(t, p, cfg, plan, 2), nil
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
	want := engineRun(t, p, cfg, plan, 2)

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
	ec := experiments.NewContext(experiments.Tiny, smarts.SerialSampler{})
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

// TestExperimentRunsOnSession: an experiment request's sampling runs go
// through the session's own path, as any request's do. Each opens with
// EventRunStart and closes with EventRunDone; each runs on the
// request's own Workers (a replay worker builds one launcher, so a
// one-worker request builds one and a three-worker request more); and
// on a store session a second request finds every sweep the first one
// committed, with output identical to the bit.
func TestExperimentRunsOnSession(t *testing.T) {
	sess, err := sim.Open(sim.WithStore(t.TempDir()), sim.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	run := func(workers int) (out string, events []sim.Progress, launchers int64) {
		freelist.Drain()
		built := freelist.Built()["replay launcher"]
		rep, err := sess.Run(context.Background(), sim.NewExperiment("fig7", sim.AtScale("tiny"), sim.Workers(workers),
			sim.OnProgress(func(p sim.Progress) { events = append(events, p) })))
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExperimentOutput, events, freelist.Built()["replay launcher"] - built
	}
	count := func(events []sim.Progress, kind sim.EventKind) (n, cached int) {
		for _, ev := range events {
			if ev.Kind == kind {
				n++
				if ev.Cached {
					cached++
				}
			}
		}
		return n, cached
	}

	first, events, launchers := run(1)
	starts, _ := count(events, sim.EventRunStart)
	dones, cached := count(events, sim.EventRunDone)
	if starts == 0 || starts != dones || cached != 0 {
		t.Fatalf("first request: %d run starts, %d run dones (%d cached); want one done per start, none cached", starts, dones, cached)
	}
	if launchers != 1 {
		t.Fatalf("one-worker request built %d replay launchers", launchers)
	}
	_, misses, _ := sess.StoreStats()

	second, events, launchers := run(3)
	if second != first {
		t.Fatalf("experiment output changed on the stored sweeps:\n%s\nwant:\n%s", second, first)
	}
	starts2, _ := count(events, sim.EventRunStart)
	dones2, cached := count(events, sim.EventRunDone)
	if starts2 != starts || dones2 != dones || cached != dones {
		t.Fatalf("second request: %d run starts, %d run dones (%d cached); want %d of each, all cached", starts2, dones2, cached, starts)
	}
	if hits, misses2, _ := sess.StoreStats(); misses2 != misses || hits != uint64(dones) {
		t.Fatalf("store: %d hits, %d misses after the second request; want %d hits, still %d misses", hits, misses2, dones, misses)
	}
	if launchers < 2 {
		t.Fatalf("three-worker request built %d replay launchers", launchers)
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
