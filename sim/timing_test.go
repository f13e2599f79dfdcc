package sim_test

import (
	"context"
	"testing"

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
