package checkpoint_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestHandoffWaitsMeasured: a consumer slower than the interpreter
// fills the ring, and the sweep's Timing reports the interpreter's park;
// both waits are wall-clock parts of the sweep, so neither exceeds it.
func TestHandoffWaitsMeasured(t *testing.T) {
	p := genProg(t, "gzipx", 300_000)
	params := checkpoint.Params{U: 1000, W: 2000, K: 2, FunctionalWarm: true}
	const perUnit = time.Millisecond
	sum, tm, err := checkpoint.CaptureStream(context.Background(), p, uarch.Config8Way(), params, func(*checkpoint.Unit) bool {
		time.Sleep(perUnit)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ring holds 32k instructions, 16 units here: the interpreter is
	// parked for most of the slow consumer's sleeps.
	if min := time.Duration(sum.Captured/2) * perUnit; tm.InterpPark < min {
		t.Errorf("interpreter parked %v behind a consumer sleeping %v per unit over %d units, want >= %v",
			tm.InterpPark, perUnit, sum.Captured, min)
	}
	if tm.InterpPark > tm.Sweep || tm.WarmWait > tm.Sweep {
		t.Errorf("waits (warm %v, interpreter %v) exceed the sweep's %v", tm.WarmWait, tm.InterpPark, tm.Sweep)
	}
}
