package sim_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/sim"
)

// The cancellation matrix: cancel before the sweep, mid-sweep,
// mid-replay, and mid-procedure-calibration. Each case asserts the run
// returns ctx.Err() promptly (the issue's <100ms budget after the
// cancel), leaks no goroutines, and never leaves a partially written
// COMMITTED entry in the checkpoint store — a committed *.ckpt is
// always a complete sweep. A cancelled sweep may deliberately leave a
// *.partial resume journal (crash-safe partial progress; see
// resume_test.go), which the store's entry loader never confuses with
// a committed entry. The tests run sequentially (goroutine counting is
// process-global).

const promptness = 100 * time.Millisecond

// cancelPlan keeps individual replay units small so workers drain fast
// after a cancel, and dense so every phase of the pipeline is long
// enough to be hit mid-flight.
func cancelRequest(extra ...sim.RequestOption) *sim.Request {
	opts := append([]sim.RequestOption{
		sim.Length(2_000_000),
		sim.UnitSize(500),
		sim.Warmup(500),
		sim.Units(2000),
		sim.Workers(2),
	}, extra...)
	return sim.NewRequest("gccx", opts...)
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeEntries lists committed entry files in a store directory.
func storeEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// stagedTemps lists leftover staging temp files (an aborted writer
// must remove its temp file).
func stagedTemps(t *testing.T, dir string) []string {
	t.Helper()
	all, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range all {
		if matched, _ := filepath.Match("*.tmp-*", e.Name()); matched {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// runCancelCase executes req against a fresh store-backed session,
// cancelling via trigger (which receives cancel and each progress
// event), and asserts the shared postconditions. It returns the store
// directory for extra per-case checks.
func runCancelCase(t *testing.T, req *sim.Request, trigger func(cancel context.CancelFunc, p sim.Progress)) string {
	t.Helper()
	dir := t.TempDir()
	sess, err := sim.Open(sim.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	req.Progress = func(p sim.Progress) {
		if cancelledAt.IsZero() {
			trigger(func() {
				cancelledAt = time.Now()
				cancel()
			}, p)
		}
	}

	baseline := runtime.NumGoroutine()
	rep, err := sess.Run(ctx, req)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want context.Canceled", rep, err)
	}
	if cancelledAt.IsZero() {
		t.Fatal("trigger never fired: the run finished before the cancellation point was reached")
	}
	lag := returned.Sub(cancelledAt)
	t.Logf("run returned %v after cancel", lag)
	if lag > promptness {
		t.Fatalf("run returned %v after cancel, want <= %v", lag, promptness)
	}
	waitGoroutines(t, baseline)
	if tmps := stagedTemps(t, dir); len(tmps) > 0 {
		t.Fatalf("aborted store writer left staging files: %v", tmps)
	}
	return dir
}

func TestCancelBeforeSweep(t *testing.T) {
	dir := t.TempDir()
	sess, err := sim.Open(sim.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work
	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err = sess.Run(ctx, cancelRequest())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if lag := time.Since(start); lag > promptness {
		t.Fatalf("pre-cancelled run took %v, want <= %v", lag, promptness)
	}
	waitGoroutines(t, baseline)
	if got := storeEntries(t, dir); len(got) != 0 {
		t.Fatalf("pre-cancelled run committed store entries: %v", got)
	}
}

func TestCancelMidSweep(t *testing.T) {
	dir := runCancelCase(t, cancelRequest(), func(cancel context.CancelFunc, p sim.Progress) {
		// First captured unit: the sweep is running, replay barely
		// started — cancelling here interrupts the sweep mid-stream.
		if p.Kind == sim.EventUnitCaptured {
			cancel()
		}
	})
	// The sweep never completed, so nothing may have been committed —
	// only (at most) a *.partial resume journal.
	if got := storeEntries(t, dir); len(got) != 0 {
		t.Fatalf("cancelled sweep committed store entries: %v", got)
	}
}

func TestCancelMidReplay(t *testing.T) {
	dir := runCancelCase(t, cancelRequest(), func(cancel context.CancelFunc, p sim.Progress) {
		// Cancel once a batch of units has been folded: the pipeline is
		// mid-replay (and typically still mid-sweep).
		if p.Kind == sim.EventUnitReplayed && p.Replayed >= 8 {
			cancel()
		}
	})
	// The sweep may or may not have finished before the cancel; if an
	// entry was committed it must be complete — a fresh session must
	// load it and reproduce the uncancelled baseline bit for bit.
	if entries := storeEntries(t, dir); len(entries) > 0 {
		verifyCommittedEntry(t, dir)
	}
}

// verifyCommittedEntry reruns the cancel request to completion against
// the store directory and checks the entry both loads and yields the
// same measurement as a storeless run.
func verifyCommittedEntry(t *testing.T, dir string) {
	t.Helper()
	fresh, err := sim.Open(sim.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fromStore, err := fresh.Run(context.Background(), cancelRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !fromStore.Result().SweepCached {
		t.Fatal("committed entry did not load (treated as a miss)")
	}

	bare, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	want, err := bare.Run(context.Background(), cancelRequest())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "store entry after cancel", fromStore.Result(), want.Result())
}

func TestCancelMidProcedure(t *testing.T) {
	sawTuned := false
	runCancelCase(t, cancelRequest(sim.Calibrate(0.001)), func(cancel context.CancelFunc, p sim.Progress) {
		// The tiny eps forces the n-calibration rerun; cancel once the
		// tuned stage is replaying — mid-procedure-calibration.
		if p.Stage == "tuned" {
			sawTuned = true
		}
		if sawTuned && p.Kind == sim.EventUnitReplayed {
			cancel()
		}
	})
}

func TestCancelSerialLoop(t *testing.T) {
	// The classic serial loop honors ctx between units and inside
	// fast-forward gaps (no store involved).
	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	baseline := runtime.NumGoroutine()
	var cancelledAt time.Time
	req := cancelRequest(sim.SerialLoop())
	req.Progress = func(p sim.Progress) {
		if p.Kind == sim.EventRunStart && cancelledAt.IsZero() {
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancelledAt = time.Now()
				cancel()
			}()
		}
	}
	_, err = sess.Run(ctx, req)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if cancelledAt.IsZero() {
		t.Fatal("cancel never fired")
	}
	if lag := returned.Sub(cancelledAt); lag > promptness {
		t.Fatalf("serial loop returned %v after cancel, want <= %v", lag, promptness)
	}
	waitGoroutines(t, baseline)
}

func TestDeadlineExceeded(t *testing.T) {
	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = sess.Run(ctx, cancelRequest())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
