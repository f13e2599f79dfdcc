package sim_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/smarts"
	"repro/internal/uarch"
	"repro/sim"
)

// TestSingleflightSweep runs N concurrent identical requests against a
// cold store and asserts exactly one functional sweep happened (one
// store miss; every other request reused the committed entry) and that
// all N reports are bit-identical to the serial baseline.
func TestSingleflightSweep(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 80, smarts.FunctionalWarming, 0)
	want, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open(sim.WithStore(t.TempDir()), sim.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const clients = 6
	var wg sync.WaitGroup
	reports := make([]*sim.Report, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = sess.Run(context.Background(),
				sim.NewRequest(testBench, sim.Length(testLen), sim.Units(80)))
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sameMeasurement(t, "concurrent client", reports[i].Result(), want)
	}

	hits, misses, ok := sess.StoreStats()
	if !ok {
		t.Fatal("session has no store")
	}
	if misses != 1 {
		t.Fatalf("%d store misses (= sweeps), want exactly 1", misses)
	}
	if hits != clients-1 {
		t.Fatalf("%d store hits, want %d", hits, clients-1)
	}
	cached := 0
	for _, rep := range reports {
		if rep.Result().SweepCached {
			cached++
		}
	}
	if cached != clients-1 {
		t.Fatalf("%d reports marked SweepCached, want %d", cached, clients-1)
	}
}

// TestSingleflightStoreless runs N concurrent identical requests on a
// session with no on-disk store and asserts the session-scoped
// in-memory sweep cache gives the same reuse: exactly one sweep (one
// cache miss), every other request replaying the cached launch states,
// all reports bit-identical to the serial baseline — and a later
// sequential request also reusing the sweep.
func TestSingleflightStoreless(t *testing.T) {
	p := testProg(t)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 80, smarts.FunctionalWarming, 0)
	want, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sim.Open(sim.WithWorkers(2)) // no store
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, _, ok := sess.StoreStats(); ok {
		t.Fatal("storeless session reports a store")
	}

	const clients = 6
	var wg sync.WaitGroup
	reports := make([]*sim.Report, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = sess.Run(context.Background(),
				sim.NewRequest(testBench, sim.Length(testLen), sim.Units(80)))
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sameMeasurement(t, "storeless concurrent client", reports[i].Result(), want)
	}
	_, misses, _, ok := sess.SweepCacheStats()
	if !ok {
		t.Fatal("storeless session has no sweep cache")
	}
	if misses != 1 {
		t.Fatalf("%d sweep-cache misses (= sweeps), want exactly 1", misses)
	}
	cached := 0
	for _, rep := range reports {
		if rep.Result().SweepCached {
			cached++
		}
	}
	if cached != clients-1 {
		t.Fatalf("%d reports marked SweepCached, want %d", cached, clients-1)
	}

	// A later request reuses the parked sweep outright.
	rep, err := sess.Run(context.Background(),
		sim.NewRequest(testBench, sim.Length(testLen), sim.Units(80)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result().SweepCached {
		t.Fatal("sequential rerun did not reuse the cached sweep")
	}
	sameMeasurement(t, "storeless rerun", rep.Result(), want)

	// Multi-offset requests share the cache too.
	ph := sim.NewRequest(testBench, sim.Length(testLen), sim.Units(60), sim.Phases(0, 2))
	first, err := sess.Run(context.Background(), ph)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.Run(context.Background(),
		sim.NewRequest(testBench, sim.Length(testLen), sim.Units(60), sim.Phases(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Results[0].SweepCached {
		t.Fatal("repeated phase run did not reuse the cached multi-offset sweep")
	}
	for i := range first.Results {
		sameMeasurement(t, "storeless phases", again.Results[i], first.Results[i])
	}
}

// TestSingleflightPhases exercises the multi-offset path's dedup: two
// concurrent phase requests for one key pay one multi-offset sweep.
func TestSingleflightPhases(t *testing.T) {
	sess, err := sim.Open(sim.WithStore(t.TempDir()), sim.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	req := func() *sim.Request {
		return sim.NewRequest(testBench, sim.Length(testLen), sim.Units(60), sim.Phases(0, 2))
	}
	var wg sync.WaitGroup
	reports := make([]*sim.Report, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = sess.Run(context.Background(), req())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	_, misses, _ := sess.StoreStats()
	if misses != 1 {
		t.Fatalf("%d store misses (= multi-offset sweeps), want exactly 1", misses)
	}
	for i := range reports[0].Results {
		sameMeasurement(t, "phase client", reports[1].Results[i], reports[0].Results[i])
	}
}
