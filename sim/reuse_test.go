package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/freelist"
	"repro/sim"
)

// reportDigest hashes everything a report measures, bit for bit: the
// estimates, the instruction accounting and every unit's cycles and
// energy.
func reportDigest(rep *sim.Report) string {
	h := sha256.New()
	res := rep.Result()
	fmt.Fprintf(h, "cpi=%016x ci=%016x epi=%016x measured=%d warming=%d fastfwd=%d\n",
		math.Float64bits(rep.CPI.Mean), math.Float64bits(rep.CPI.RelCI), math.Float64bits(rep.EPI.Mean),
		res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
	for _, u := range res.Units {
		fmt.Fprintf(h, "%d %d %016x\n", u.Index, u.Cycles, math.Float64bits(u.EnergyNJ))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reuseStep is one request of the reuse sequence and whether the run
// must have come from the store.
type reuseStep struct {
	name   string
	req    func() *sim.Request
	cached bool
}

// reuseSequence is one process's mix of machines and paths: gccx on the
// 8-way machine swept into the store, mcfx on the 16-way machine with
// no store, a store hit of the first request, and the first request
// again without the store.
func reuseSequence() []reuseStep {
	gccx := func(opts ...sim.RequestOption) func() *sim.Request {
		return func() *sim.Request {
			return sim.NewRequest("gccx", append([]sim.RequestOption{sim.Length(400_000), sim.Units(40),
				sim.Machine(sim.Config8Way()), sim.Workers(2)}, opts...)...)
		}
	}
	mcfx := func() *sim.Request {
		return sim.NewRequest("mcfx", sim.Length(200_000), sim.Units(30),
			sim.Machine(sim.Config16Way()), sim.Workers(2), sim.NoStore())
	}
	return []reuseStep{
		{"gccx 8-way, swept into the store", gccx(), false},
		{"mcfx 16-way", mcfx, false},
		{"gccx 8-way, store hit", gccx(), true},
		{"gccx 8-way, no store", gccx(sim.NoStore()), false},
	}
}

// runSequence runs the sequence on a new session over a new store,
// draining the free lists before every request when drain is set, and
// returns each report's digest.
func runSequence(t *testing.T, drain bool) []string {
	t.Helper()
	sess, err := sim.Open(sim.WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var digests []string
	for _, step := range reuseSequence() {
		if drain {
			freelist.Drain()
		}
		rep, err := sess.Run(context.Background(), step.req())
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if rep.Result().SweepCached != step.cached {
			t.Fatalf("%s: sweep cached %v, want %v", step.name, rep.Result().SweepCached, step.cached)
		}
		digests = append(digests, reportDigest(rep))
	}
	return digests
}

// TestReuseIsInvisible: a request measures the same on launchers, sweep
// rigs, rings and store readers that earlier requests of other
// programs, machines and paths returned as on new ones. The sequence
// runs once with the free lists drained before every request — every
// object built for it — and then twice on one process's lists, and
// every report must carry the same digest. Then two sessions run
// different requests concurrently on the shared lists, which the race
// detector watches, and each must still match.
func TestReuseIsInvisible(t *testing.T) {
	steps := reuseSequence()
	fresh := runSequence(t, true)
	for round := range 2 {
		for i, got := range runSequence(t, false) {
			if got != fresh[i] {
				t.Fatalf("round %d, %s: digest %s on reused machinery, %s on new", round, steps[i].name, got, fresh[i])
			}
		}
	}

	var wg sync.WaitGroup
	for _, i := range []int{1, 3} { // mcfx 16-way beside gccx 8-way
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := sim.Open()
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			for range 2 {
				rep, err := sess.Run(context.Background(), steps[i].req())
				if err != nil {
					t.Error(err)
					return
				}
				if got := reportDigest(rep); got != fresh[i] {
					t.Errorf("%s beside another session: digest %s, %s on new machinery", steps[i].name, got, fresh[i])
				}
			}
		}()
	}
	wg.Wait()
}
