package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/program"
	"repro/sim"
)

// shape is how a workload's requests reach the simulator.
type shape int

const (
	// coldStore opens a fresh session over an empty store for every
	// request: the sweep runs and is encoded and committed each time.
	coldStore shape = iota
	// storeHit sends every request to one session over a primed store:
	// the sweep is bypassed, launch states are loaded and decoded.
	storeHit
	// noStore sends every request to one session with the store and the
	// sweep cache bypassed: sweep and replay both run, nothing is kept.
	noStore
	// procedure opens a fresh storeless session per request and runs the
	// paper's two-step procedure on it.
	procedure
	// fleet sends every request through dist.Client to a loopback
	// coordinator and two workers whose sweep cache is primed.
	fleet
)

// workload is one named set of inputs. The seed picks the systematic
// phase offset j; sim.Request names suite programs only, so the program
// itself is the same for every seed and the committed full-detail
// reference holds for all of them.
type workload struct {
	name   string
	why    string
	bench  string
	length uint64 // stream length in instructions
	units  uint64 // target measured units n (n_init for procedure)
	shape  shape
}

const (
	// procedureEps is the confidence target of procedure-3pct (the
	// paper's ±3% at 99.7%).
	procedureEps = 0.03
	// procedurePhase is the phase offset procedure-3pct runs at whatever
	// the seed. The procedure's tuned sample size comes from the initial
	// sample's measured variation and is quantised by the interval k, so
	// it jumps between offsets (1423, 1660 or 1993 units on this program):
	// a seed effect of up to 17% in a metric whose bound is 20%.
	procedurePhase = 1
)

// workloads lists the benchmark's workloads: the issue's shapes, with
// stream lengths and unit counts scaled together so that one request takes
// 0.1–0.9 s on the 2-core reference box and a 12 s run holds 13 requests or
// more, while the layer the issue names still dominates (README.md has the
// measured shares). cold-sparse's interval is chosen not to beat with
// gccx's loop periods: at k=249 (10M, 40 units) the sampled units moved
// through the loops in step and a request's replay cost ranged over 2x
// with the phase offset; at k=166 it stays within ±5%.
var workloads = []workload{
	{name: "cold-sparse", bench: "gccx", length: 12_000_000, units: 72, shape: coldStore,
		why: "gccx 12M insts, 73 units (k=166), fresh session and store per request: 98% fast-forwarded, so interpreter, warmer, cache/bpred warm and checkpoint capture/encode/commit dominate"},
	{name: "store-hit", bench: "gccx", length: 12_000_000, units: 72, shape: storeHit,
		why: "cold-sparse's request on one session over a primed store: sweep bypassed, so store load, codec decode, Materialize and replay dominate; an interpreter or warmer change must not move it"},
	{name: "replay-dense", bench: "gccx", length: 400_000, units: 200, shape: noStore,
		why: "gccx 400k insts, every unit measured (k=1, 386 units, W=2000), NoStore: 3 detailed insts per stream inst at CPI 3.9, so per-instruction work in uarch.Core and Materialize dominate"},
	{name: "replay-membound", bench: "mcfx", length: 200_000, units: 50, shape: noStore,
		why: "mcfx 200k insts, 62 units (k=3), NoStore: CPI 33, host time follows simulated cycles, not instructions, so what uarch.Core does in idle cycles dominates; replay-dense's opposite"},
	{name: "procedure-3pct", bench: "craftyx", length: 10_000_000, units: 200, shape: procedure,
		why: "craftyx 10M insts, Calibrate(0.03) from n_init=200 (tuned n=1661) on a fresh storeless session: sweep and replay balanced, so pipeline overlap and engine scheduling decide wall-clock"},
	{name: "fleet-loopback", bench: "gccx", length: 400_000, units: 200, shape: fleet,
		why: "replay-dense's request through dist.Client to a loopback coordinator and 2 workers, sweep primed, run journal on: only wire framing, digest verify, merge, journal and HTTP differ"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// replayWorkers sizes the replay pool to the reference box (2 cores), so
// no workload starts more runnable goroutines than the box has cores.
func replayWorkers() int { return min(2, runtime.NumCPU()) }

// fleetWorkers is the loopback fleet's worker count; each runs one replay
// worker, matching replayWorkers in total on the reference box.
const fleetWorkers = 2

// env is a workload set up and ready to serve requests one at a time.
type env struct {
	w    workload
	prog *program.Program
	cfg  sim.Config
	plan sim.Plan
	// refCPI is the full-detail CPI of prog on cfg, the accuracy
	// reference (committed in golden.json, else simulated during set-up).
	refCPI float64
	// want is the report digest every request must reproduce: the golden
	// one when the golden file has this request, else the warm-up
	// request's.
	want string
	// serve sends one request and returns its report; it is the timed
	// region of the closed loop.
	serve func(ctx context.Context) (*sim.Report, error)
	// settle does the untimed work between two requests (measuring and
	// removing what a request left on disk).
	settle func()
	// storeBytes is the size of the store entry the request commits or
	// reads; 0 for workloads without a store.
	storeBytes int64
	close      func()
}

// request builds the workload's request at phase offset j.
func (w workload) request(j uint64) *sim.Request {
	req := sim.NewRequest(w.bench, sim.Length(w.length), sim.Units(w.units), sim.Phase(j))
	switch w.shape {
	case noStore:
		req.NoStore = true
	case procedure:
		req.Procedure = &sim.ProcedureSpec{Eps: procedureEps}
	}
	return req
}

// setUp generates the workload's program, resolves its plan and
// reference, primes whatever its shape needs primed, and sends one warm-up
// request. Everything it does is what setup_s times.
func setUp(ctx context.Context, w workload, seed uint64, scratch string, gold *golden) (*env, error) {
	spec, err := program.ByName(w.bench)
	if err != nil {
		return nil, err
	}
	prog, err := program.Generate(spec, w.length)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, prog: prog, cfg: sim.Config8Way(), settle: func() {}, close: func() {}}
	j := seed % sim.ResolvePlan(w.request(0), prog).K
	if w.shape == procedure {
		j = procedurePhase
	}
	req := w.request(j)
	e.plan = sim.ResolvePlan(req, prog)

	if e.refCPI, err = gold.reference(prog, e.cfg); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e.close = func() { os.RemoveAll(dir) }
	if err := e.prime(ctx, req, dir); err != nil {
		e.close()
		return nil, err
	}

	rep, err := e.serve(ctx)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	e.settle()
	e.want = digest(rep)
	if g, ok := gold.digest(e); ok {
		e.want = g
	}
	return e, nil
}

// prime builds serve/settle/close for the workload's shape.
func (e *env) prime(ctx context.Context, req *sim.Request, dir string) error {
	workers := sim.WithWorkers(replayWorkers())
	switch e.w.shape {
	case coldStore:
		n := 0
		var last string
		e.serve = func(ctx context.Context) (*sim.Report, error) {
			n++
			last = filepath.Join(dir, fmt.Sprintf("store-%d", n))
			sess, err := sim.Open(sim.WithStore(last), workers)
			if err != nil {
				return nil, err
			}
			defer sess.Close()
			return sess.Run(ctx, req)
		}
		e.settle = func() {
			e.storeBytes = entryBytes(last)
			os.RemoveAll(last)
		}

	case storeHit:
		store := filepath.Join(dir, "store")
		sess, err := sim.Open(sim.WithStore(store), workers)
		if err != nil {
			return err
		}
		if _, err := sess.Run(ctx, req); err != nil {
			return fmt.Errorf("prime store: %w", err)
		}
		e.storeBytes = entryBytes(store)
		e.serve = func(ctx context.Context) (*sim.Report, error) {
			rep, err := sess.Run(ctx, req)
			if err == nil && !rep.Result().SweepCached {
				err = fmt.Errorf("store-hit request swept instead of loading the primed entry")
			}
			return rep, err
		}
		e.close = func() { sess.Close(); os.RemoveAll(dir) }

	case noStore:
		sess, err := sim.Open(workers)
		if err != nil {
			return err
		}
		e.serve = func(ctx context.Context) (*sim.Report, error) { return sess.Run(ctx, req) }
		e.close = func() { sess.Close(); os.RemoveAll(dir) }

	case procedure:
		e.serve = func(ctx context.Context) (*sim.Report, error) {
			sess, err := sim.Open(workers)
			if err != nil {
				return nil, err
			}
			defer sess.Close()
			return sess.Run(ctx, req)
		}

	case fleet:
		lb, err := startLoopback(ctx, filepath.Join(dir, "coord"))
		if err != nil {
			return err
		}
		e.close = func() { lb.stop(); os.RemoveAll(dir) }
		if _, err := lb.client.Run(ctx, req); err != nil {
			return fmt.Errorf("prime fleet sweep: %w", err)
		}
		e.serve = func(ctx context.Context) (*sim.Report, error) {
			rep, err := lb.client.Run(ctx, req)
			if err == nil && !rep.Result().SweepCached {
				err = fmt.Errorf("fleet request swept instead of using the primed sweep")
			}
			return rep, err
		}
	}
	return nil
}

// entryBytes sums the committed checkpoint entries under a store dir.
func entryBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".ckpt" {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// loopback is an in-process fleet: one coordinator and fleetWorkers
// workers on loopback HTTP, each worker with one replay worker.
type loopback struct {
	client   *dist.Client
	storeDir string
	servers  []*httptest.Server
	meter    *meter
}

// meter wraps the coordinator's handler to count the requests it serves
// and the body bytes they move in both directions.
type meter struct {
	next        http.Handler
	rpcs, bytes atomic.Int64
}

func (m *meter) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	m.rpcs.Add(1)
	r.Body = &meteredBody{r.Body, &m.bytes}
	m.next.ServeHTTP(&meteredWriter{rw, &m.bytes}, r)
}

type meteredBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type meteredWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// Flush keeps the coordinator's event streams flowing through the wrapper.
func (w *meteredWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func startLoopback(ctx context.Context, storeDir string) (*loopback, error) {
	coord, err := dist.NewCoordinator(dist.Options{StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	lb := &loopback{storeDir: storeDir, meter: &meter{next: coord.Handler()}}
	coordSrv := httptest.NewServer(lb.meter)
	lb.servers = append(lb.servers, coordSrv)
	for i := 0; i < fleetWorkers; i++ {
		var h http.Handler
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		lb.servers = append(lb.servers, srv)
		w := dist.NewWorker(dist.WorkerOptions{
			Coordinator:  coordSrv.URL,
			Self:         srv.URL,
			Workers:      1,
			PollInterval: 5 * time.Millisecond,
		})
		h = w.Handler()
		if err := w.Register(ctx); err != nil {
			lb.stop()
			return nil, err
		}
	}
	lb.client = dist.NewClient(coordSrv.URL)
	return lb, nil
}

func (lb *loopback) stop() {
	for _, s := range lb.servers {
		s.Close()
	}
}

// digest is what must repeat exactly between two runs of one request, on
// any commit that does not mean to change the model: the estimates' bits
// and the instruction accounting.
func digest(rep *sim.Report) string {
	res := rep.Result()
	return fmt.Sprintf("cpi=%016x ci=%016x epi=%016x units=%d measured=%d warming=%d fastfwd=%d",
		math.Float64bits(rep.CPI.Mean), math.Float64bits(rep.CPI.RelCI), math.Float64bits(rep.EPI.Mean),
		len(res.Units), res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
}
