package sim_test

import (
	"context"
	"testing"
	"time"

	"repro/sim"
)

// TestReusedSweepReportsNoSweepTime: a run that reuses a sweep — a store
// hit, a memory-cache hit, one request or several phase offsets —
// reports SweepCached and no sweep time of its own (FastFwdTime 0),
// while FastFwdInsts still echoes the sweep it reused. Only the run that
// swept reports a sweep.
func TestReusedSweepReportsNoSweepTime(t *testing.T) {
	for _, tc := range []struct {
		name   string
		store  bool
		phases bool
	}{
		{name: "store hit", store: true},
		{name: "memory-cache hit"},
		{name: "store hit, phases", store: true, phases: true},
		{name: "memory-cache hit, phases", phases: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []sim.Option
			if tc.store {
				opts = append(opts, sim.WithStore(t.TempDir()))
			}
			sess, err := sim.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			req := func() *sim.Request {
				r := sim.NewRequest(testBench, sim.Length(testLen), sim.Units(80), sim.Workers(2))
				if tc.phases {
					sim.Phases(0, 3)(r)
				}
				return r
			}
			first, err := sess.Run(context.Background(), req())
			if err != nil {
				t.Fatal(err)
			}
			swept := first.Results[0]
			if swept.SweepCached {
				t.Fatal("the first run claims a reused sweep")
			}
			for i := range 2 {
				rep, err := sess.Run(context.Background(), req())
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Results) != len(first.Results) {
					t.Fatalf("hit %d: %d results, want %d", i, len(rep.Results), len(first.Results))
				}
				for j, r := range rep.Results {
					if !r.SweepCached || r.FastFwdTime != 0 || r.FastFwdInsts != swept.FastFwdInsts {
						t.Fatalf("hit %d, result %d: cached %v, fast-forward %v over %d insts; want cached, 0 over %d",
							i, j, r.SweepCached, r.FastFwdTime, r.FastFwdInsts, swept.FastFwdInsts)
					}
				}
			}
		})
	}
}

// TestTimingWithinElapsed: a run's FastFwdTime and DetailedTime are an
// attribution of its own wall clock, so they sum to no more than the
// report's Elapsed at any worker count — for a plain run and a
// multi-offset one, cold and on a reused sweep. (The replays' summed
// time grows with the worker count and would not fit.)
func TestTimingWithinElapsed(t *testing.T) {
	sess, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, phases := range [][]uint64{nil, {0, 1}} {
		for i := range 2 {
			rep, err := sess.Run(context.Background(),
				sim.NewRequest(testBench, sim.Length(testLen), sim.Units(200), sim.Workers(2), sim.Phases(phases...)))
			if err != nil {
				t.Fatal(err)
			}
			var sum time.Duration
			for _, res := range rep.Results {
				sum += res.DetailedTime
			}
			// Phase results echo the one shared sweep: count it once.
			sum += rep.Results[0].FastFwdTime
			if sum > rep.Elapsed {
				t.Fatalf("phases %v, run %d: fast-forward %v + detailed %v exceeds elapsed %v",
					phases, i, rep.Results[0].FastFwdTime, sum-rep.Results[0].FastFwdTime, rep.Elapsed)
			}
		}
	}
}
