package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/uarch"
	"repro/sim"
)

const (
	testBench = "gzipx"
	testLen   = 600_000
)

var (
	progOnce sync.Once
	progVal  *program.Program
	progErr  error
)

func testProg(t *testing.T) *program.Program {
	t.Helper()
	progOnce.Do(func() {
		spec, err := program.ByName(testBench)
		if err != nil {
			progErr = err
			return
		}
		progVal, progErr = program.Generate(spec, testLen)
	})
	if progErr != nil {
		t.Fatal(progErr)
	}
	return progVal
}

func testRequest(opts ...sim.RequestOption) *sim.Request {
	base := []sim.RequestOption{sim.Length(testLen), sim.Units(60)}
	return sim.NewRequest(testBench, append(base, opts...)...)
}

// baseline runs the request on the local single-process engine — the
// reference every distributed topology must reproduce bit-identically.
func baseline(t *testing.T, req *sim.Request) *smarts.Result {
	t.Helper()
	prog := testProg(t)
	cfg := uarch.Config8Way()
	plan := sim.ResolvePlan(req, prog)
	er, err := engine.Run(context.Background(), prog, cfg, plan.CheckpointParams(), engine.Options{
		Workers: 1,
		Alpha:   req.Alpha,
	})
	if err != nil {
		t.Fatal(err)
	}
	return smarts.FromEngine(plan, er, er)
}

// sameMeasurement asserts the deterministic halves of two results are
// bit-identical (wall-clock fields legitimately differ).
func sameMeasurement(t *testing.T, label string, got, want *smarts.Result) {
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

// cluster is a loopback coordinator plus worker fleet.
type cluster struct {
	coord    *Coordinator
	coordURL string
	workers  []*Worker
}

// newCluster wires machines loopback workers (each with workersEach
// replay workers) to a fresh coordinator.
func newCluster(t *testing.T, machines, workersEach int, copt Options) *cluster {
	t.Helper()
	return newClusterWrapped(t, machines, workersEach, copt, nil)
}

// newClusterWrapped is newCluster with an optional per-machine handler
// wrapper (for fault injection).
func newClusterWrapped(t *testing.T, machines, workersEach int, copt Options, wrap func(i int, h http.Handler) http.Handler) *cluster {
	t.Helper()
	coord, err := NewCoordinator(copt)
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(coord.Handler())
	t.Cleanup(csrv.Close)
	cl := &cluster{coord: coord, coordURL: csrv.URL}
	for i := 0; i < machines; i++ {
		var w *Worker
		var h http.Handler
		wsrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(wsrv.Close)
		w = NewWorker(WorkerOptions{
			Coordinator: csrv.URL,
			Self:        wsrv.URL,
			Workers:     workersEach,
		})
		h = w.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		if err := w.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		cl.workers = append(cl.workers, w)
	}
	return cl
}

// TestTopologiesBitIdentical is the end-to-end matrix: every
// (machine × worker) topology reproduces the single-process engine
// baseline bit for bit, and the fleet pays exactly one sweep: the first
// run's, and a second run reuses it.
func TestTopologiesBitIdentical(t *testing.T) {
	want := baseline(t, testRequest())
	topologies := []struct{ machines, workers int }{
		{1, 1},
		{1, 4},
		{3, 2},
	}
	for _, topo := range topologies {
		t.Run(fmt.Sprintf("%dx%d", topo.machines, topo.workers), func(t *testing.T) {
			cl := newCluster(t, topo.machines, topo.workers, Options{})
			client := NewClient(cl.coordURL)
			rep, err := client.Run(context.Background(), testRequest())
			if err != nil {
				t.Fatal(err)
			}
			sameMeasurement(t, "distributed run", rep.Result(), want)
			if rep.Result().SweepCached {
				t.Fatal("fresh cluster reports a cached sweep")
			}
			// A second run reuses the coordinator-cached sweep: no new
			// sweep, same bits.
			rep2, err := client.Run(context.Background(), testRequest())
			if err != nil {
				t.Fatal(err)
			}
			sameMeasurement(t, "cached distributed run", rep2.Result(), want)
			if !rep2.Result().SweepCached {
				t.Fatal("second run did not reuse the cached sweep")
			}
		})
	}
}

// TestTimingWithinElapsed: a fleet run's FastFwdTime and DetailedTime
// mean what a local run's do — the coordinator's sweep, and the rest of
// the run's wall clock — so they sum to no more than the report's
// Elapsed, cold and on the primed sweep. The replays' summed time, which
// grows with the number of workers replaying at once, would not fit.
func TestTimingWithinElapsed(t *testing.T) {
	cl := newCluster(t, 2, 1, Options{})
	client := NewClient(cl.coordURL)
	for i := range 2 {
		rep, err := client.Run(context.Background(), testRequest(sim.Units(200)))
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Result()
		if res.FastFwdTime+res.DetailedTime > rep.Elapsed {
			t.Fatalf("run %d: fast-forward %v + detailed %v exceeds elapsed %v",
				i, res.FastFwdTime, res.DetailedTime, rep.Elapsed)
		}
	}
}

// TestSharedStoreEntry pre-seeds the coordinator's on-disk store via a
// first cluster; a second cluster sharing the directory serves every
// shard from the stored sweep — zero sweeps, identical bits.
func TestSharedStoreEntry(t *testing.T) {
	want := baseline(t, testRequest())
	dir := t.TempDir()

	first := newCluster(t, 1, 2, Options{StoreDir: dir})
	rep, err := NewClient(first.coordURL).Run(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "seeding run", rep.Result(), want)
	if rep.Result().SweepCached {
		t.Fatal("seeding run reports a cached sweep")
	}

	second := newCluster(t, 2, 2, Options{StoreDir: dir})
	rep2, err := NewClient(second.coordURL).Run(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "store-served run", rep2.Result(), want)
	if !rep2.Result().SweepCached {
		t.Fatal("store-served run not marked SweepCached")
	}
}

// killingHandler aborts the connection after limit response writes on
// the shard endpoint and refuses everything afterwards — a worker
// process dying mid-shard.
type killingHandler struct {
	h     http.Handler
	limit int

	mu     sync.Mutex
	killed bool
}

func (k *killingHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	dead := k.killed
	k.mu.Unlock()
	if dead {
		panic(http.ErrAbortHandler)
	}
	if strings.HasPrefix(r.URL.Path, "/v1/shards") {
		k.mu.Lock()
		k.killed = true
		k.mu.Unlock()
		k.h.ServeHTTP(&cutoffWriter{rw: rw, left: k.limit}, r)
		return
	}
	k.h.ServeHTTP(rw, r)
}

// cutoffWriter aborts the handler after left writes (one write per
// NDJSON record).
type cutoffWriter struct {
	rw   http.ResponseWriter
	left int
}

func (c *cutoffWriter) Header() http.Header { return c.rw.Header() }

func (c *cutoffWriter) WriteHeader(code int) { c.rw.WriteHeader(code) }

func (c *cutoffWriter) Write(p []byte) (int, error) {
	if c.left <= 0 {
		panic(http.ErrAbortHandler)
	}
	c.left--
	return c.rw.Write(p)
}

func (c *cutoffWriter) Flush() {
	if fl, ok := c.rw.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestWorkerKillMidRun kills one of two workers a few records into its
// first shard stream; the survivor absorbs the requeued range. The
// report stays bit-identical.
func TestWorkerKillMidRun(t *testing.T) {
	want := baseline(t, testRequest())
	cl := newClusterWrapped(t, 2, 2, Options{},
		func(i int, h http.Handler) http.Handler {
			if i == 0 {
				return &killingHandler{h: h, limit: 3}
			}
			return h
		})
	rep, err := NewClient(cl.coordURL).Run(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "run with worker kill", rep.Result(), want)
}

// TestCoordinatorSweepSingleflight: two concurrent runs of one key do
// one cold sweep between them — the second waits for the first and
// reuses its set — and both reports are bit-identical. A third run of
// the primed key is served from the coordinator's memory without
// touching the store (memory before disk).
func TestCoordinatorSweepSingleflight(t *testing.T) {
	want := baseline(t, testRequest())
	cl := newCluster(t, 2, 1, Options{StoreDir: t.TempDir()})
	var wg sync.WaitGroup
	reps := make([]*sim.Report, 2)
	errs := make([]error, 2)
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = cl.coord.Run(context.Background(), testRequest())
		}(i)
	}
	wg.Wait()
	cold := 0
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameMeasurement(t, fmt.Sprintf("concurrent run %d", i), rep.Result(), want)
		if rep.Result().FastFwdInsts != want.FastFwdInsts {
			t.Fatalf("concurrent run %d: fast-forward %d, want %d", i, rep.Result().FastFwdInsts, want.FastFwdInsts)
		}
		if !rep.Result().SweepCached {
			cold++
		}
	}
	if cold != 1 {
		t.Fatalf("%d of 2 concurrent runs swept cold, want exactly 1", cold)
	}

	hits, _ := cl.coord.store.Stats()
	rep, err := cl.coord.Run(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "primed run", rep.Result(), want)
	if !rep.Result().SweepCached {
		t.Fatal("primed run swept again")
	}
	if after, _ := cl.coord.store.Stats(); after != hits {
		t.Fatalf("primed run read the store (%d -> %d hits); the memory cache comes first", hits, after)
	}
}

// TestAllWorkersDead: when every worker fails, the run errors out
// instead of hanging.
func TestAllWorkersDead(t *testing.T) {
	cl := newClusterWrapped(t, 1, 1, Options{},
		func(_ int, h http.Handler) http.Handler {
			return &killingHandler{h: h, limit: 0}
		})
	_, err := NewClient(cl.coordURL).Run(context.Background(), testRequest())
	if err == nil {
		t.Fatal("run with only dead workers succeeded")
	}
	if !strings.Contains(err.Error(), "workers failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCancelMidRun cancels the context after the first folded unit;
// the run tears down promptly and reports the cancellation.
func TestCancelMidRun(t *testing.T) {
	cl := newCluster(t, 1, 2, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := testRequest(sim.OnProgress(func(ev sim.Progress) {
		if ev.Kind == sim.EventUnitReplayed {
			cancel()
		}
	}))
	start := time.Now()
	_, err := NewClient(cl.coordURL).Run(ctx, req)
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestAdmissionControl: a full slot table with no queue fails fast with
// ErrBusy; a queued run honors its deadline.
func TestAdmissionControl(t *testing.T) {
	cl := newCluster(t, 1, 1, Options{MaxActive: 1, MaxQueue: -1})
	cl.coord.slots <- struct{}{} // occupy the only slot
	defer func() { <-cl.coord.slots }()

	_, err := NewClient(cl.coordURL).Run(context.Background(), testRequest())
	if err == nil || !strings.Contains(err.Error(), ErrBusy.Error()) {
		t.Fatalf("full coordinator returned %v, want ErrBusy", err)
	}

	// Local API reports ErrBusy directly.
	if _, err := cl.coord.Run(context.Background(), testRequest()); !errors.Is(err, ErrBusy) {
		t.Fatalf("local run returned %v, want ErrBusy", err)
	}

	// With a queue, a waiting run respects its context deadline.
	cl2 := newCluster(t, 1, 1, Options{MaxActive: 1, MaxQueue: 4})
	cl2.coord.slots <- struct{}{}
	defer func() { <-cl2.coord.slots }()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl2.coord.Run(ctx, testRequest()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued run returned %v, want DeadlineExceeded", err)
	}
}

// TestRejectsNonDistributable: local-only modes fail before touching
// the network.
func TestRejectsNonDistributable(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens; must not matter
	cases := []*sim.Request{
		sim.NewExperiment("fig5"),
		sim.NewRequest(testBench, sim.SerialLoop()),
		sim.NewRequest(testBench, sim.Phases(0, 1)),
		sim.NewRequest(testBench, sim.Calibrate(0)),
		sim.NewRequest(""),
	}
	for i, req := range cases {
		if _, err := client.Run(context.Background(), req); err == nil {
			t.Fatalf("case %d: non-distributable request accepted", i)
		}
	}
}

// TestProgressEvents: a distributed run emits run-start, shard, sweep,
// replay (with population/total/ETA denominators), and run-done events.
func TestProgressEvents(t *testing.T) {
	cl := newCluster(t, 1, 2, Options{})
	var mu sync.Mutex
	kinds := map[sim.EventKind]int{}
	var sawTotals bool
	req := testRequest(sim.OnProgress(func(ev sim.Progress) {
		mu.Lock()
		defer mu.Unlock()
		kinds[ev.Kind]++
		if ev.Kind == sim.EventUnitReplayed && ev.Total > 0 && ev.Population > 0 {
			sawTotals = true
		}
	}))
	if _, err := NewClient(cl.coordURL).Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []sim.EventKind{sim.EventRunStart, sim.EventUnitCaptured,
		sim.EventUnitReplayed, sim.EventRunDone, sim.EventShardStart, sim.EventShardDone} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events observed (saw %v)", k, kinds)
		}
	}
	if !sawTotals {
		t.Fatal("replay events carried no population/total denominators")
	}
}
