package sim_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/sim"
)

// TestSessionResumesCancelledSweep is the sim-level half of the
// crash/resume acceptance: a run cancelled mid-sweep leaves a resume
// journal in the session's store, and rerunning the same request — in
// a fresh session over the same store directory, as after a process
// crash — transparently completes from the journal with a report
// bit-identical to an uninterrupted run. A multi-offset request's one
// shared sweep streams into the store, journals and reports per-unit
// capture progress exactly like a single-offset sweep, so both rows
// make the same assertions.
func TestSessionResumesCancelledSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []sim.RequestOption
	}{
		{name: "single offset"},
		{name: "multi offset", extra: []sim.RequestOption{sim.Units(500), sim.Phases(0, 3, 5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testSessionResumesCancelledSweep(t, func() *sim.Request { return cancelRequest(tc.extra...) })
		})
	}
}

func testSessionResumesCancelledSweep(t *testing.T, cancelRequest func() *sim.Request) {
	dir := t.TempDir()
	open := func() *sim.Session {
		sess, err := sim.Open(sim.WithStore(dir), sim.WithKeyframe(4), sim.WithResumeInterval(1))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	// Uninterrupted baseline, storeless: the measurement a resumed run
	// must reproduce bit for bit.
	bare, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	want, err := bare.Run(context.Background(), cancelRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: cancel deep into the sweep.
	sess := open()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := cancelRequest()
	req.Progress = func(p sim.Progress) {
		if p.Kind == sim.EventUnitCaptured && p.Captured >= 3*p.Total/4 {
			cancel()
		}
	}
	if _, err := sess.Run(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}
	sess.Close()
	partials, err := filepath.Glob(filepath.Join(dir, "*.partial"))
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) == 0 {
		t.Fatal("cancelled sweep left no resume journal")
	}

	// Run 2: a fresh session (the post-crash process) reruns the same
	// request and must resume, not resweep.
	sess = open()
	defer sess.Close()
	rep, err := sess.Run(context.Background(), cancelRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(want.Results) {
		t.Fatalf("rerun has %d results, want %d", len(rep.Results), len(want.Results))
	}
	// Every offset's result echoes the one shared sweep's accounting.
	for i, res := range rep.Results {
		if res.SweepCached {
			t.Fatal("rerun hit a committed entry; the cancelled run must not have committed one")
		}
		if res.FastFwdResumedInsts == 0 {
			t.Fatal("rerun swept cold instead of resuming from the journal")
		}
		if executed := res.FastFwdInsts - res.FastFwdResumedInsts; executed*2 > res.FastFwdInsts {
			t.Fatalf("resume saved too little: executed %d of a %d-inst sweep after cancelling at ~3/4",
				executed, res.FastFwdInsts)
		}
		sameMeasurement(t, "resumed run", res, want.Results[i])
	}

	// The journal is consumed and a complete entry committed: a third
	// run is a plain store hit, still bit-identical.
	if left, err := filepath.Glob(filepath.Join(dir, "*.partial")); err != nil || len(left) != 0 {
		t.Fatalf("resume journal survived completion: %v (err %v)", left, err)
	}
	rep, err = sess.Run(context.Background(), cancelRequest())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if !res.SweepCached {
			t.Fatal("completed resumed run did not commit a store entry")
		}
		sameMeasurement(t, "store entry after resume", res, want.Results[i])
	}
}
