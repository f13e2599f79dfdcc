package experiments_test

import (
	"context"

	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// tinyCtx is shared across tests in this package so the expensive
// reference runs happen once.
var tinyCtx = experiments.NewContext(experiments.Tiny, smarts.SerialSampler{})

func cfg8() uarch.Config { return uarch.Config8Way() }

// TestFig2Shape checks Figure 2's qualitative content: V_CPI is
// non-increasing in U and drops steeply from the smallest unit size.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs references")
	}
	r, err := experiments.Fig2(context.Background(), tinyCtx, cfg8())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benches) == 0 {
		t.Fatal("no benchmarks")
	}
	for i, bench := range r.Benches {
		prev := -1.0
		violations := 0
		for _, cv := range r.CV[i] {
			if cv < 0 {
				continue
			}
			if prev >= 0 && cv > prev*1.15 {
				violations++ // allow small non-monotonic wiggle
			}
			prev = cv
		}
		if violations > 1 {
			t.Errorf("%s: V_CPI not non-increasing in U: %v", bench, r.CV[i])
		}
	}
	knee := r.KneeCheck(1000)
	for b, ratio := range knee {
		if ratio < 1.0 {
			t.Errorf("%s: no CV drop from U=%d to U=1000 (ratio %.2f)", b, tinyCtx.Scale.Chunk, ratio)
		}
	}
}

// TestFig3Invariants checks Figure 3's scale-independent structure: the
// required measurement n·U is an absolute quantity in the paper's range
// (the benchmark length N does not enter), tighter intervals cost 9x,
// and higher confidence costs more.
func TestFig3Invariants(t *testing.T) {
	if testing.Short() {
		t.Skip("needs references")
	}
	r, err := experiments.Fig3(context.Background(), tinyCtx, cfg8())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		m := row.MinInsts
		// ±1% (index 1) needs exactly 9x the sample of ±3% (index 0)
		// modulo ceiling effects.
		if m[1] < 8*m[0] || m[1] > 10*m[0] {
			t.Errorf("%s: ±1%% (%d) not ~9x ±3%% (%d)", row.Bench, m[1], m[0])
		}
		// 99.7% confidence (z=2.97) needs more than 95% (z=1.96).
		if m[0] <= m[2] || m[1] <= m[3] {
			t.Errorf("%s: 99.7%% targets not costlier than 95%%: %v", row.Bench, m)
		}
		// Absolute scale: the paper's U=10 requirements land between
		// thousands and tens of millions of instructions.
		if m[0] < 1000 || m[0] > 100_000_000 {
			t.Errorf("%s: ±3%%@99.7%% requirement %d outside plausible band", row.Bench, m[0])
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("Format output missing header")
	}
}

// TestFig4Shape checks the analytic model's monotonic collapse and the
// flatness of the functional-warming curve.
func TestFig4Shape(t *testing.T) {
	r, err := experiments.Fig4(context.Background(), tinyCtx)
	if err != nil {
		t.Fatal(err)
	}
	pts := r.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].SD60 > pts[i-1].SD60 || pts[i].SD600 > pts[i-1].SD600 {
			t.Errorf("modelled rate not non-increasing in W at %d", pts[i].W)
		}
	}
	if pts[0].SD600 > pts[0].SD60 {
		t.Error("slower detailed simulator should not model faster")
	}
	// Functional warming at small W stays near S_FW.
	if pts[0].FW < 0.5*0.55 {
		t.Errorf("functional warming rate at W=0 is %.3f, want near 0.55", pts[0].FW)
	}
}

// TestRegistryNames checks every paper artifact has a runner.
func TestRegistryNames(t *testing.T) {
	want := []string{"ablation", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "table5", "table6"}
	have := experiments.Names()
	if len(have) != len(want) {
		t.Fatalf("registry has %v, want %v", have, want)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, have[i], want[i])
		}
	}
}

// TestScaleByName checks scale resolution.
func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium"} {
		s, err := experiments.ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := experiments.ScaleByName("bogus"); err == nil {
		t.Error("ScaleByName accepted bogus scale")
	}
}
