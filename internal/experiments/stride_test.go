package experiments_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// TestStrideBiasUnderThreshold runs the bias-vs-stride grid at the
// fast scale and asserts the property the parallel sweep documents:
// with the default warm-up overlap, the worst per-benchmark bias of a
// parallel sweep stays under ParallelSweepBiasThreshold. It also pins
// the grid's serial row to an unmodified serial-sweep measurement
// (SweepParallelism 0) bit for bit, so stride's baseline is exactly
// the pre-existing engine-path bias.
func TestStrideBiasUnderThreshold(t *testing.T) {
	cfg := uarch.Config8Way()
	ec := freshTinyCtx()
	ec.Scale.Benches = []string{"gzipx", "gccx"}

	r, err := experiments.Stride(context.Background(), ec, cfg, []int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Engine != nil {
		t.Fatalf("Stride wrote the caller's context: Engine = %+v", *ec.Engine)
	}
	if len(r.Rows) != 2 || len(r.Rows[0].Cells) != 2 {
		t.Fatalf("grid shape %d rows x %d cells, want 2x2", len(r.Rows), len(r.Rows[0].Cells))
	}

	worst := r.WorstAtDefaultOverlap()
	if worst == 0 {
		t.Fatal("no parallel default-overlap cell measured")
	}
	if worst > experiments.ParallelSweepBiasThreshold {
		t.Errorf("worst parallel bias at default overlap %.4f exceeds documented threshold %.4f",
			worst, experiments.ParallelSweepBiasThreshold)
	}

	// The serial row must be bit-identical to a plain engine-path bias
	// measurement with the sweep-parallelism knob left at zero.
	w := smarts.RecommendedW(cfg)
	for _, bench := range ec.Scale.BenchNames() {
		base := freshTinyCtx()
		base.Scale.Benches = ec.Scale.Benches
		base.Engine = &engine.Options{}
		b, err := experiments.MeasureBias(context.Background(), base, bench, cfg, 1000, w,
			smarts.FunctionalWarming, ec.Scale.NInit, ec.Scale.BiasPhases)
		if err != nil {
			t.Fatal(err)
		}
		serial := r.Rows[0].Cells[0]
		if serial.WorstOf == bench && math.Float64bits(math.Abs(b)) != math.Float64bits(serial.WorstBias) {
			t.Errorf("serial stride cell %v != direct serial bias %v for %s",
				serial.WorstBias, math.Abs(b), bench)
		}
	}

	var sb strings.Builder
	r.Format(&sb)
	out := sb.String()
	for _, want := range []string{"segments", "ov=none", "ov=1000000"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted stride report missing %q:\n%s", want, out)
		}
	}
}

// TestStrideBiasThresholdSmallScale measures the real cold-start bias
// at a scale where segments are longer than the default overlap (so
// segment starts do not all clamp to zero, unlike the tiny scale) and
// asserts the documented guarantee: a 4-way parallel sweep at the
// default overlap keeps the worst per-benchmark bias under
// ParallelSweepBiasThreshold. This is the measurement that tuned
// checkpoint.DefaultSweepOverlap — shrinking the overlap to 100k
// raises this bias past 20%.
func TestStrideBiasThresholdSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale bias grid runs full 2M-instruction references")
	}
	cfg := uarch.Config8Way()
	ec := experiments.NewContext(experiments.Small)
	ec.Scale.Benches = []string{"gzipx", "gccx", "eonx", "parserx"}

	r, err := experiments.Stride(context.Background(), ec, cfg, []int{4}, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	worst := r.WorstAtDefaultOverlap()
	if worst == 0 {
		t.Fatal("no parallel default-overlap cell measured")
	}
	if worst > experiments.ParallelSweepBiasThreshold {
		t.Errorf("worst 4-segment bias at default overlap %.4f exceeds documented threshold %.4f",
			worst, experiments.ParallelSweepBiasThreshold)
	}
	t.Logf("worst 4-segment bias at default overlap: %.4f (%s)", worst, r.Rows[0].Cells[0].WorstOf)
}

// TestStrideDoesNotDisturbConcurrentBias runs the stride grid and a
// plain bias measurement concurrently on ONE context, the way a sim
// session shares a context between requests: Stride must vary the sweep
// knobs on its own copies, so a measurement taken while the grid runs
// equals the one taken before it bit for bit (and the race detector
// sees no shared write).
func TestStrideDoesNotDisturbConcurrentBias(t *testing.T) {
	cfg := uarch.Config8Way()
	const bench = "gccx"
	w := smarts.RecommendedW(cfg)
	shared := freshTinyCtx()
	shared.Scale.Benches = []string{bench}
	shared.Scale.NInit, shared.Scale.BiasPhases = 40, 2 // keep the race-detector run short
	shared.Engine = &engine.Options{Workers: 2}
	bias := func() float64 {
		b, err := experiments.MeasureBias(context.Background(), shared, bench, cfg, 1000, w,
			smarts.FunctionalWarming, shared.Scale.NInit, shared.Scale.BiasPhases)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	solo := bias()

	strideDone := make(chan error, 1)
	go func() {
		// Cold-started 8-way segments: the setting whose leak into a
		// concurrent measurement would move its CPI the most.
		_, err := experiments.Stride(context.Background(), shared, cfg, []int{8}, []int64{-1})
		strideDone <- err
	}()
	overlapped := 0
	for running := true; running; {
		select {
		case err := <-strideDone:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			if b := bias(); math.Float64bits(b) != math.Float64bits(solo) {
				t.Fatalf("bias measured concurrently with Stride = %v, solo = %v", b, solo)
			}
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("no bias measurement overlapped the stride grid")
	}
	if got := *shared.Engine; got.SweepParallelism != 0 || got.SweepOverlap != 0 || got.Workers != 2 {
		t.Fatalf("Stride wrote the shared context's engine options: %+v", got)
	}
}
