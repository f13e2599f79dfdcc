package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/wallclock"
	"repro/sim"
)

// ErrBusy reports that the coordinator's run slots and wait queue are
// both full; the caller should retry later (HTTP 429 on the wire).
var ErrBusy = errors.New("dist: coordinator at capacity")

// Options configures a Coordinator.
type Options struct {
	// StoreDir, when non-empty, attaches an on-disk checkpoint store:
	// the coordinator's sweeps are journaled into it as they run and
	// persisted for later runs and restarts, and every accepted run
	// keeps a write-ahead journal under StoreDir/runs/ that a restarted
	// coordinator recovers in-flight runs (and their interrupted sweeps)
	// from. StoreMaxBytes caps the store (see sim.WithStoreLimit).
	StoreDir      string
	StoreMaxBytes int64
	// MemCacheBytes caps the in-memory sweep cache's snapshot payload
	// (0 = unbounded). The cache fronts the store: a run looks in memory
	// first, and store hits and fresh sweeps land in memory.
	MemCacheBytes int64
	// MaxActive bounds concurrently executing runs, and so concurrent
	// sweeps (default 2);
	// MaxQueue bounds runs waiting for a slot (default 16). A run
	// beyond both fails fast with ErrBusy; a queued run honors its
	// context deadline.
	MaxActive int
	MaxQueue  int
	// ShardsPerWorker sets how many contiguous shard ranges are cut per
	// live worker (default 2): more shards mean finer-grained retry and
	// better load balance, at more per-shard overhead.
	ShardsPerWorker int
	// Faults, when non-nil, arms the deterministic fault-injection
	// harness on the coordinator's hooks (FaultKillMidSweep,
	// FaultKillCoordinator). Testing only.
	Faults *Faults
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Coordinator is the distributed sampling service's front door: it
// admits runs, acquires each run's sweep (cache, store, or its own
// journaled capture — once per key however many runs share it), shards
// the sampled units across registered workers and serves them the
// sweep, verifies every streamed unit's digest, and merges shard
// streams into bit-identical reports. Each accepted run gets a stable
// ID and an append-only event history that clients stream (and
// re-attach to after losing the connection); with a store attached,
// each run also keeps a write-ahead journal so a restarted coordinator
// — a fresh NewCoordinator over the same store directory — resumes
// in-flight runs instead of losing them.
// All methods are safe for concurrent use.
type Coordinator struct {
	opt    Options
	store  *checkpoint.Store
	sweeps *checkpoint.MemCache
	client *http.Client
	slots  chan struct{}

	// lifeCtx is the coordinator's serving lifetime; die (the
	// FaultKillCoordinator hook) cancels it, aborting every run and
	// handler the way a process death would. epoch is a random nonce
	// identifying this coordinator incarnation: clients compare it on
	// re-attach to detect a restart (their stream high-water mark refers
	// to a dead event history).
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	epoch      string

	mu      sync.Mutex
	queued  int
	workers []*workerRef
	active  map[string]*activeRun
	// runs holds every known run by ID — executing, queued, and (capped
	// by maxFinishedRuns, in finished order) terminal, so late
	// re-attaches can still fetch the outcome.
	runs     map[string]*runState
	finished []string
}

// maxFinishedRuns bounds how many terminal runs stay addressable for
// late re-attaches before the oldest are dropped.
const maxFinishedRuns = 64

// activeRun is the sweep of one key hash, refcounted across the
// concurrent runs sharing it. sweep holds mu while it acquires the set,
// so the runs of one key sweep once; set, written under both mu and
// the coordinator's mu, is pinned for GET /v1/sweeps/{hash} while any
// of them runs.
type activeRun struct {
	key  checkpoint.Key
	mu   sync.Mutex
	set  *checkpoint.Set
	refs int
}

// workerRef is one registered worker.
type workerRef struct {
	url string

	mu   sync.Mutex
	dead bool
	// quarantined latches when a shard stream from this worker fails
	// digest verification: unlike dead (a liveness state heartbeats
	// clear), quarantine is sticky — a worker that produced a corrupt
	// measurement is never dispatched to again by this coordinator.
	quarantined bool
	// beatEvery and lastBeat implement heartbeat liveness: a worker that
	// announced a heartbeat interval and then fell silent for three
	// intervals stops receiving dispatches until it beats again.
	// Workers that never announced an interval are exempt.
	beatEvery time.Duration
	lastBeat  time.Time
}

func (w *workerRef) markDead() { w.mu.Lock(); w.dead = true; w.mu.Unlock() }
func (w *workerRef) quarantine() {
	w.mu.Lock()
	w.quarantined = true
	w.mu.Unlock()
}
func (w *workerRef) beat() {
	w.mu.Lock()
	w.dead = false
	w.lastBeat = wallclock.Now()
	w.mu.Unlock()
}
func (w *workerRef) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.quarantined {
		return false
	}
	if w.beatEvery > 0 && !w.lastBeat.IsZero() && wallclock.Since(w.lastBeat) > 3*w.beatEvery {
		return false
	}
	return true
}

// NewCoordinator builds a coordinator (opening the on-disk store when
// configured) and recovers any in-flight run journals the previous
// incarnation left in the store directory: each becomes a live run
// again, resuming from its journaled merge prefix as soon as workers
// (re-)register. Workers register themselves over POST /v1/register or
// are added directly with AddWorker.
func NewCoordinator(opt Options) (*Coordinator, error) {
	if opt.MaxActive <= 0 {
		opt.MaxActive = 2
	}
	if opt.MaxQueue < 0 {
		opt.MaxQueue = 0
	} else if opt.MaxQueue == 0 {
		opt.MaxQueue = 16
	}
	if opt.ShardsPerWorker <= 0 {
		opt.ShardsPerWorker = 2
	}
	c := &Coordinator{
		opt:    opt,
		sweeps: checkpoint.NewMemCache(),
		client: &http.Client{},
		slots:  make(chan struct{}, opt.MaxActive),
		active: make(map[string]*activeRun),
		runs:   make(map[string]*runState),
		epoch:  randHex(8),
	}
	c.lifeCtx, c.lifeCancel = context.WithCancel(context.Background()) //simlint:noctx server lifecycle root; outlives any one request, cancelled by Close
	c.sweeps.MaxBytes = opt.MemCacheBytes
	if opt.StoreDir != "" {
		store, err := checkpoint.OpenStore(opt.StoreDir)
		if err != nil {
			return nil, err
		}
		store.MaxBytes = opt.StoreMaxBytes
		store.Logf = opt.Logf
		c.store = store
		c.recoverRuns()
	}
	return c, nil
}

// randHex returns n random bytes hex-encoded (run IDs, the epoch).
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Degrade to a clock-derived nonce; uniqueness not randomness is
		// what the IDs need.
		now := uint64(wallclock.Now().UnixNano())
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// die simulates the coordinator's process death (FaultKillCoordinator):
// the serving context cancels, aborting every run, dispatch, and
// handler; new requests are refused. Runs keep their journals (a dead
// process cannot tidy up), which is exactly what the next incarnation
// recovers from.
func (c *Coordinator) die() {
	c.logf("dist: coordinator killed (injected)")
	c.lifeCancel()
}

// killed reports whether die was called.
func (c *Coordinator) killed() bool { return c.lifeCtx.Err() != nil }

// AddWorker registers a worker by base URL (idempotent; re-adding a
// dead worker revives it). Workers added this way announce no
// heartbeat and are never expired for silence.
func (c *Coordinator) AddWorker(url string) { c.addWorker(url, 0) }

func (c *Coordinator) addWorker(url string, beatEvery time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			w.mu.Lock()
			w.dead = false
			w.beatEvery = beatEvery
			if beatEvery > 0 {
				w.lastBeat = wallclock.Now()
			}
			w.mu.Unlock()
			return
		}
	}
	ref := &workerRef{url: url, beatEvery: beatEvery}
	if beatEvery > 0 {
		ref.lastBeat = wallclock.Now()
	}
	c.workers = append(c.workers, ref)
	c.logf("dist: worker registered: %s", url)
}

// workerByURL finds a registered worker.
func (c *Coordinator) workerByURL(url string) *workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			return w
		}
	}
	return nil
}

func (c *Coordinator) liveWorkers() []*workerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []*workerRef
	for _, w := range c.workers {
		if w.alive() {
			live = append(live, w)
		}
	}
	return live
}

// retainRun returns key's entry in the active table, creating it for
// the first of its runs.
func (c *Coordinator) retainRun(key checkpoint.Key) *activeRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	run, ok := c.active[key.Hash()]
	if !ok {
		run = &activeRun{key: key}
		c.active[key.Hash()] = run
	}
	run.refs++
	return run
}

func (c *Coordinator) releaseRun(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if run := c.active[hash]; run != nil {
		if run.refs--; run.refs <= 0 {
			delete(c.active, hash)
		}
	}
}

// resolvedRun is a request resolved against its generated workload:
// everything the execution needs, fixed at accept time so a journaled
// run replays under the identical plan even if resolution defaults
// ever change between incarnations.
type resolvedRun struct {
	spec  runSpec
	prog  *program.Program
	pop   uint64
	total int
}

// resolve validates and resolves a wire request. Failures are
// deterministic rejections (HTTP 400): retrying or falling back cannot
// change them.
func (c *Coordinator) resolve(wr *wireRequest) (*resolvedRun, error) {
	req := wr.request()
	length := req.Length
	if length == 0 {
		length = sim.DefaultLength
	}
	prog, err := program.Get(req.Workload, length)
	if err != nil {
		return nil, err
	}
	cfg := req.Config
	if cfg == (uarch.Config{}) {
		cfg = uarch.Config8Way()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan := sim.ResolvePlan(req, prog)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	spec := runSpec{Workload: req.Workload, Length: length, Config: cfg, Plan: plan}
	pop := prog.Length / plan.U
	return &resolvedRun{spec: spec, prog: prog, pop: pop,
		total: plan.CheckpointParams().ExpectedUnits(pop)}, nil
}

// resolveSpec rebuilds a recovered run's resolution from its journaled
// spec — the already-resolved plan, not the raw request, so recovery
// cannot re-resolve differently.
func (c *Coordinator) resolveSpec(hdr *journalRun) (*resolvedRun, error) {
	prog, err := program.Get(hdr.Spec.Workload, hdr.Spec.Length)
	if err != nil {
		return nil, err
	}
	plan := hdr.Spec.Plan
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	pop := prog.Length / plan.U
	return &resolvedRun{spec: hdr.Spec, prog: prog, pop: pop,
		total: plan.CheckpointParams().ExpectedUnits(pop)}, nil
}

// runState is one known run: its identity, event history, execution
// context, and journal. The event history is an append-only sequence of
// envelopes with 1-based Seq; consumers (the in-process Run call, the
// HTTP stream handler) read it through next and block on the returned
// channel for more.
type runState struct {
	id      string
	c       *Coordinator
	wr      *wireRequest
	rr      *resolvedRun
	rec     *recoveredRun
	journal *runJournal

	// ctx is a child of the coordinator's lifeCtx; cancel aborts the
	// run (client cancellation, or the coordinator dying).
	ctx    context.Context
	cancel context.CancelFunc

	// hasSlot records that accept acquired an execution slot
	// synchronously; inQueue that the run is counted in the wait queue.
	hasSlot bool
	inQueue bool

	mu      sync.Mutex
	base    int64 // Seq of envs[0] minus one (terminal pruning shifts it)
	envs    []runEnvelope
	waiters []chan struct{}
	done    bool
	errVal  error // terminal error value (in-process consumers preserve errors.Is)
}

func (c *Coordinator) newRunState(id string, wr *wireRequest) *runState {
	rs := &runState{id: id, c: c, wr: wr}
	rs.ctx, rs.cancel = context.WithCancel(c.lifeCtx)
	return rs
}

func (c *Coordinator) runByID(id string) *runState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[id]
}

// emit appends one envelope to the run's event history and wakes the
// stream consumers. Events after the terminal record are dropped.
func (rs *runState) emit(env runEnvelope) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.done {
		return
	}
	env.Seq = rs.base + int64(len(rs.envs)) + 1
	rs.envs = append(rs.envs, env)
	for _, w := range rs.waiters {
		close(w)
	}
	rs.waiters = nil
}

// emitProgress is the run's sim.ProgressFunc: events enter the history
// as envelopes and reach every attached consumer.
func (rs *runState) emitProgress(ev sim.Progress) {
	wp := wireFromProgress(ev)
	rs.emit(runEnvelope{Progress: &wp})
}

// terminal appends the final envelope. The history stays intact so
// consumers attached right now drain the progress tail before the
// outcome; prune reclaims it later (see noteFinished).
func (rs *runState) terminal(env runEnvelope) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.done {
		return
	}
	env.Seq = rs.base + int64(len(rs.envs)) + 1
	rs.envs = append(rs.envs, env)
	rs.done = true
	for _, w := range rs.waiters {
		close(w)
	}
	rs.waiters = nil
}

// prune drops a terminal run's progress history down to its final
// envelope: late re-attachers need the outcome, not the
// replay-by-replay past, and the history would otherwise pin every
// event of every finished run. A consumer that was mid-history is
// clamped forward by next and still receives the terminal record.
func (rs *runState) prune() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.done || len(rs.envs) <= 1 {
		return
	}
	last := rs.envs[len(rs.envs)-1]
	rs.base = last.Seq - 1
	rs.envs = []runEnvelope{last}
}

// next returns the event suffix after Seq from (possibly empty), the
// terminal flag, and — when nothing new is buffered and the run still
// executes — a channel that closes on the next emit.
func (rs *runState) next(from int64) (envs []runEnvelope, done bool, wait <-chan struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if from < rs.base {
		from = rs.base // pruned (or restarted) history: resume at its base
	}
	if idx := from - rs.base; idx < int64(len(rs.envs)) {
		return append([]runEnvelope(nil), rs.envs[idx:]...), rs.done, nil
	}
	if rs.done {
		return nil, true, nil
	}
	w := make(chan struct{})
	rs.waiters = append(rs.waiters, w)
	return nil, false, w
}

// terminalErr returns the run's stored terminal error value when the
// consumer is in-process (preserving errors.Is identity for context
// errors), else wraps the envelope string.
func (rs *runState) terminalErr(fallback string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.errVal != nil {
		return rs.errVal
	}
	return fmt.Errorf("dist: %s", fallback)
}

// finish records the run's outcome: the terminal envelope enters the
// history and the journal is removed (nothing left to recover). When
// the coordinator was killed, neither happens — a dead process writes
// no farewell, and the journal IS the recovery state.
func (rs *runState) finish(rep *sim.Report, err error) {
	c := rs.c
	if c.killed() {
		rs.journal.close()
		return
	}
	// Remove the journal BEFORE publishing the outcome: once any caller
	// can observe the terminal state, no future incarnation may find the
	// journal and silently re-run the work.
	rs.journal.remove()
	if err != nil {
		rs.mu.Lock()
		rs.errVal = err
		rs.mu.Unlock()
		rs.terminal(runEnvelope{Error: err.Error()})
	} else {
		rs.terminal(runEnvelope{Report: &wireReport{
			Result:    rep.Result(),
			CPI:       rep.CPI,
			EPI:       rep.EPI,
			ElapsedNs: int64(rep.Elapsed),
		}})
	}
	rs.cancel()
	c.noteFinished(rs.id)
}

// noteFinished caps the terminal-run registry at maxFinishedRuns and
// prunes the histories of previously finished runs: the most recent
// finisher keeps its full history (its consumers are still draining
// the tail), older ones shrink to just their terminal envelope.
func (c *Coordinator) noteFinished(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, prev := range c.finished {
		if rs := c.runs[prev]; rs != nil {
			rs.prune()
		}
	}
	c.finished = append(c.finished, id)
	for len(c.finished) > maxFinishedRuns {
		delete(c.runs, c.finished[0])
		c.finished = c.finished[1:]
	}
}

// accept admits one resolved request as a new run: it acquires an
// execution slot (or a queue seat, or fails with ErrBusy), assigns the
// run its stable ID, installs the write-ahead journal header, and
// starts the execution goroutine. The caller streams the outcome from
// the returned runState.
func (c *Coordinator) accept(wr *wireRequest) (*runState, error) {
	if c.killed() {
		return nil, fmt.Errorf("dist: coordinator is shut down")
	}
	rr, err := c.resolve(wr)
	if err != nil {
		return nil, err
	}
	hasSlot, inQueue := false, false
	select {
	case c.slots <- struct{}{}:
		hasSlot = true
	default:
		c.mu.Lock()
		if c.queued >= c.opt.MaxQueue {
			c.mu.Unlock()
			return nil, ErrBusy
		}
		c.queued++
		inQueue = true
		c.mu.Unlock()
	}
	rs := c.newRunState("r-"+randHex(8), wr)
	rs.rr = rr
	rs.hasSlot, rs.inQueue = hasSlot, inQueue
	if c.store != nil {
		hdr := journalRun{ID: rs.id, Req: *wr, Spec: rr.spec, Total: rr.total, Pop: rr.pop}
		j, jerr := writeRunJournal(c.opt.StoreDir, rs.id, c.opt.Logf, journalLine{Run: &hdr})
		if jerr != nil {
			c.logf("dist: run %s executes unjournaled: %v", rs.id, jerr)
		} else {
			rs.journal = j
		}
	}
	c.mu.Lock()
	c.runs[rs.id] = rs
	c.mu.Unlock()
	go c.execRun(rs)
	return rs, nil
}

// recoverRuns reloads the previous incarnation's run journals: each
// valid journal is compacted (rewritten as exactly its verified
// prefix) and becomes a live run again, queued for execution.
func (c *Coordinator) recoverRuns() {
	for _, rec := range loadRunJournals(c.opt.StoreDir, c.opt.Logf) {
		rec := rec
		j, err := writeRunJournal(c.opt.StoreDir, rec.hdr.ID, c.opt.Logf, rec.journalLines()...)
		if err != nil {
			c.logf("dist: cannot compact run journal %s: %v", rec.hdr.ID, err)
			continue
		}
		rs := c.newRunState(rec.hdr.ID, &rec.hdr.Req)
		rs.rec = &rec
		rs.journal = j
		c.mu.Lock()
		c.runs[rs.id] = rs
		c.mu.Unlock()
		rr, rerr := c.resolveSpec(&rec.hdr)
		if rerr != nil {
			rs.finish(nil, fmt.Errorf("dist: recovering run %s: %w", rs.id, rerr))
			continue
		}
		rs.rr = rr
		c.logf("dist: recovered run %s from journal (%d merged unit(s), %d finished shard(s))",
			rs.id, len(rec.units), len(rec.dones))
		go c.execRun(rs)
	}
}

// execRun drives one accepted run to its terminal state: wait for an
// execution slot if accept queued it, execute, record the outcome.
func (c *Coordinator) execRun(rs *runState) {
	if !rs.hasSlot {
		select {
		case c.slots <- struct{}{}:
			rs.hasSlot = true
		case <-rs.ctx.Done():
		}
		if rs.inQueue {
			c.mu.Lock()
			c.queued--
			c.mu.Unlock()
		}
		if !rs.hasSlot {
			rs.finish(nil, rs.ctx.Err())
			return
		}
	}
	defer func() { <-c.slots }()
	rep, err := c.runResolved(rs)
	rs.finish(rep, err)
}

// runResolved executes a resolved run across the worker fleet.
func (c *Coordinator) runResolved(rs *runState) (*sim.Report, error) {
	start := wallclock.Now()
	run := &shardedRun{
		c:       c,
		spec:    rs.rr.spec,
		prog:    rs.rr.prog,
		wr:      rs.wr,
		sink:    newSink(rs.emitProgress),
		rec:     rs.rec,
		journal: rs.journal,
	}
	res, err := run.run(rs.ctx)
	if err != nil {
		return nil, err
	}
	alpha := alphaOr997(rs.wr.Alpha)
	rep := &sim.Report{Results: []*sim.Result{res}, Elapsed: wallclock.Since(start)}
	if len(res.Units) > 0 {
		rep.CPI = res.CPIEstimate(alpha)
		rep.EPI = res.EPIEstimate(alpha)
	}
	return rep, nil
}

// Run executes one request across the registered workers, with the
// same signature and Report shape as sim.Session.Run. The report's
// measurement half is bit-identical to a local engine run of the same
// request at any topology. Internally the call is accept + an
// in-process attach to the run's event stream — the same protocol the
// HTTP client speaks.
func (c *Coordinator) Run(ctx context.Context, req *sim.Request) (*sim.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	wr, err := wireFromRequest(req)
	if err != nil {
		return nil, err
	}
	rs, err := c.accept(wr)
	if err != nil {
		return nil, err
	}
	var from int64
	for {
		envs, done, wait := rs.next(from)
		for _, env := range envs {
			from = env.Seq
			switch {
			case env.Progress != nil:
				if req.Progress != nil {
					req.Progress(env.Progress.progress())
				}
			case env.Error != "":
				return nil, rs.terminalErr(env.Error)
			case env.Report != nil:
				return reportFrom(env.Report), nil
			}
		}
		if done {
			return nil, fmt.Errorf("dist: run %s ended without a report", rs.id)
		}
		if wait == nil {
			continue // drained a batch; more may already be buffered
		}
		select {
		case <-wait:
		case <-ctx.Done():
			rs.cancel()
			return nil, ctx.Err()
		}
	}
}

// reportFrom rebuilds a sim.Report from its wire form. In-process
// consumers share the *smarts.Result pointer (no serialization);
// remote ones decoded it from JSON, which round-trips every
// measurement field exactly.
func reportFrom(wrep *wireReport) *sim.Report {
	rep := &sim.Report{CPI: wrep.CPI, EPI: wrep.EPI, Elapsed: time.Duration(wrep.ElapsedNs)}
	if wrep.Result != nil {
		rep.Results = []*sim.Result{wrep.Result}
	}
	return rep
}

// shardedRun is the state of one dispatched run.
type shardedRun struct {
	c       *Coordinator
	spec    runSpec
	prog    *program.Program
	wr      *wireRequest
	sink    *eventSink
	rec     *recoveredRun // non-nil: resume from this journaled prefix
	journal *runJournal

	pop    uint64
	total  int
	shards int
	m      *engine.Merger

	// smu guards the merge and the shard bookkeeping below; Merger
	// offers and journal appends are serialized under it (one lock,
	// because the merge IS the shared state of the run).
	smu       sync.Mutex
	pending   chan shardRange
	remaining int
	runErr    error
}

type shardRange struct {
	lo, hi, idx int
}

// splitRange cuts [0, n) into at most parts contiguous, near-even
// ranges (fewer when n < parts; none when n == 0).
func splitRange(n, parts int) []shardRange {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]shardRange, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + (n-lo)/(parts-i)
		out = append(out, shardRange{lo: lo, hi: hi, idx: i})
		lo = hi
	}
	return out
}

func journalShardsFrom(shards []shardRange) []journalShard {
	out := make([]journalShard, len(shards))
	for i, sr := range shards {
		out[i] = journalShard{Lo: sr.lo, Hi: sr.hi, Idx: sr.idx}
	}
	return out
}

func (r *shardedRun) run(ctx context.Context) (*smarts.Result, error) {
	c := r.c
	r.pop = r.prog.Length / r.spec.Plan.U
	r.total = r.spec.Plan.CheckpointParams().ExpectedUnits(r.pop)

	// A fresh run with no workers fails fast — the client can fall back
	// locally. A recovered run waits instead: its workers died with the
	// old coordinator and re-register as their heartbeats bounce.
	workers := c.liveWorkers()
	if len(workers) == 0 {
		if r.rec == nil {
			return nil, fmt.Errorf("dist: no live workers registered")
		}
		for len(workers) == 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			workers = c.liveWorkers()
		}
	}

	// The shard split is journaled state: recovery must requeue the
	// exact ranges the dead incarnation cut, not re-split for today's
	// fleet, or the contiguous-prefix bookkeeping below would not line
	// up with the journaled units.
	var shards []shardRange
	if r.rec != nil && len(r.rec.shards) > 0 {
		for _, s := range r.rec.shards {
			shards = append(shards, shardRange{lo: s.Lo, hi: s.Hi, idx: s.Idx})
		}
	} else {
		shards = splitRange(r.total, len(workers)*c.opt.ShardsPerWorker)
		r.journal.append(journalLine{Shards: journalShardsFrom(shards)})
	}
	r.shards = len(shards)

	r.sink.emit(sim.Progress{Kind: sim.EventRunStart, Stage: "sample", Offset: r.spec.Plan.J,
		Population: r.pop, Total: r.total})

	// The workers fetch the sweep by hash (GET /v1/sweeps/{hash}), so it
	// stays pinned until the last shard is in.
	key := checkpoint.KeyFor(r.prog, r.spec.Config, r.spec.Plan.CheckpointParams())
	active := c.retainRun(key)
	defer c.releaseRun(key.Hash())
	sweep, err := r.sweep(ctx, active)
	if err != nil {
		return nil, err
	}
	// A sweep can take a while: dispatch to the fleet as it is now.
	if live := c.liveWorkers(); len(live) > 0 {
		workers = live
	}

	alpha := alphaOr997(r.wr.Alpha)
	replayStart := wallclock.Now()
	// The run's fold is the engine's: the same Merger a local run
	// offers its pool's units to takes the fleet's shard streams (and
	// the journaled prefix at recovery), in whatever order they arrive.
	r.m = engine.NewMerger(r.spec.Plan.U, engine.Options{
		Alpha: alpha,
		OnReplayed: func(merged int, est stats.Estimate) {
			r.sink.emit(sim.Progress{Kind: sim.EventUnitReplayed, Stage: "sample", Offset: r.spec.Plan.J,
				Replayed: merged, Estimate: est, Population: r.pop, Total: r.total,
				ETA: wallclock.ETA(replayStart, merged, r.total)})
		},
	}, r.total)

	r.pending = make(chan shardRange, r.shards+len(workers))
	r.remaining = r.shards
	if r.rec != nil {
		r.replayJournal(shards)
	} else {
		for _, sr := range shards {
			r.pending <- sr
		}
	}
	if r.remaining == 0 {
		close(r.pending)
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerRef) {
			defer wg.Done()
			r.workerLoop(ctx, w)
		}(w)
	}
	wg.Wait()

	r.smu.Lock()
	defer r.smu.Unlock()
	er := r.m.Finish()
	switch {
	case r.runErr != nil:
		return nil, r.runErr
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case r.remaining > 0:
		return nil, fmt.Errorf("dist: %d shard range(s) left unassigned: all workers failed", r.remaining)
	}
	er.Timing.Wall = wallclock.Since(replayStart)
	res := smarts.FromEngine(r.spec.Plan, sweep, er)
	done := sim.Progress{Kind: sim.EventRunDone, Stage: "sample", Offset: r.spec.Plan.J,
		Replayed: len(res.Units), Cached: res.SweepCached, Population: r.pop, Total: r.total}
	if len(res.Units) > 0 {
		done.Estimate = res.CPIEstimate(alpha)
	}
	r.sink.emit(done)
	return res, nil
}

// sweep pins the run's snapshot set on active, acquired the way a local
// run acquires it (engine.CaptureSet: the memory cache, then the store,
// then a sweep journaled into the store, resuming whatever journal an
// interrupted one left) while holding active's lock, so concurrent runs
// of one key sweep once: a waiter reuses the pinned set as cached, or
// acquires it itself (resuming the journal) if the first run failed. It
// returns CaptureSet's sweep half of the run's result.
func (r *shardedRun) sweep(ctx context.Context, active *activeRun) (*engine.Result, error) {
	c := r.c
	captured := func(n int) {
		r.sink.emit(sim.Progress{Kind: sim.EventUnitCaptured, Stage: "sample", Offset: r.spec.Plan.J,
			Captured: n, Population: r.pop, Total: r.total})
	}
	active.mu.Lock()
	defer active.mu.Unlock()
	if set := active.set; set != nil {
		captured(len(set.Units))
		return &engine.Result{PopulationUnits: set.PopulationUnits, SweepInsts: set.SweepInsts, SweepCached: true}, nil
	}
	opt := engine.Options{Cache: c.sweeps, OnCaptured: func(n int) {
		if ok, _ := c.opt.Faults.fire(FaultKillMidSweep); ok {
			c.die()
		}
		captured(n)
	}}
	if !r.wr.NoStore {
		opt.Store = c.store
	}
	set, sweep, err := engine.CaptureSet(ctx, r.prog, r.spec.Config, r.spec.Plan.CheckpointParams(), opt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	active.set = set
	c.mu.Unlock()
	return sweep, nil
}

// replayJournal re-offers a recovered run's journaled merge prefix and
// requeues the unfinished shard suffixes. Because the merge is a pure,
// order-insensitive function of the offered set, re-offering the
// journaled units then streaming the remainder from workers produces
// the identical result an uninterrupted run would have — the journaled
// prefix is simply work the fleet does not redo.
func (r *shardedRun) replayJournal(shards []shardRange) {
	rec := r.rec
	r.smu.Lock()
	defer r.smu.Unlock()
	merged := make(map[int]bool, len(rec.units))
	for i := range rec.units {
		merged[rec.units[i].Seq] = true
		r.m.Offer(rec.units[i].rangeUnit())
	}
	doneIdx := make(map[int]bool, len(rec.dones))
	for _, d := range rec.dones {
		doneIdx[d.Idx] = true
	}
	for _, sr := range shards {
		if doneIdx[sr.idx] {
			r.remaining--
			continue
		}
		// Units stream (and journal) in ascending order per shard, so
		// the journaled prefix of each shard is contiguous from lo; only
		// the suffix is redispatched. A fully-merged shard missing its
		// trailer requeues as an empty range — the worker replays
		// nothing and returns just the trailer.
		n := 0
		for sr.lo+n < sr.hi && merged[sr.lo+n] {
			n++
		}
		r.pending <- shardRange{lo: sr.lo + n, hi: sr.hi, idx: sr.idx}
	}
}

func alphaOr997(alpha float64) float64 {
	if alpha == 0 {
		return stats.Alpha997
	}
	return alpha
}

// workerLoop pulls shard ranges for one worker until the pool drains,
// the run is cancelled, or the worker dies or is quarantined.
func (r *shardedRun) workerLoop(ctx context.Context, w *workerRef) {
	for {
		var sr shardRange
		var ok bool
		select {
		case sr, ok = <-r.pending:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		received, err := r.runShard(ctx, w, sr)
		if err == nil {
			r.smu.Lock()
			r.journal.append(journalLine{Done: &journalDone{Idx: sr.idx}})
			r.remaining--
			if r.remaining == 0 {
				close(r.pending)
			}
			r.smu.Unlock()
			continue
		}
		if ctx.Err() != nil {
			return // cancelled by the caller, not a failure
		}
		var app *appError
		if errors.As(err, &app) {
			// The simulation itself failed; it would fail identically on
			// any worker. Abort the run.
			r.smu.Lock()
			if r.runErr == nil {
				r.runErr = err
			}
			r.smu.Unlock()
			return
		}
		var corr *corruptError
		if errors.As(err, &corr) {
			// The worker streamed a unit whose digest does not match its
			// measurement: a corrupt frame or a misbehaving worker. Only
			// verified units entered the merge, so requeueing from the
			// verified prefix keeps the result untouched; the worker is
			// quarantined from all further dispatch.
			w.quarantine()
			r.c.logf("dist: %v; quarantining %s and requeueing %d unit(s)",
				err, w.url, sr.hi-(sr.lo+received))
			r.sink.emit(sim.Progress{Kind: sim.EventQuarantine, Stage: "sample", Offset: r.spec.Plan.J,
				Population: r.pop, Total: r.total, Shard: sr.idx, Shards: r.shards,
				Note: err.Error()})
			r.smu.Lock()
			r.pending <- shardRange{lo: sr.lo + received, hi: sr.hi, idx: sr.idx}
			r.smu.Unlock()
			return
		}
		// Transport failure: the worker is gone. Units stream in
		// ascending order, so the received prefix is contiguous — the
		// rest of the range goes back in the pool for the survivors,
		// and merge-by-index keeps the outcome untouched.
		w.markDead()
		r.c.logf("dist: worker %s died on shard %d [%d,%d): %v; requeueing %d unit(s)",
			w.url, sr.idx, sr.lo, sr.hi, err, sr.hi-(sr.lo+received))
		r.smu.Lock()
		r.pending <- shardRange{lo: sr.lo + received, hi: sr.hi, idx: sr.idx}
		r.smu.Unlock()
		return
	}
}

// appError is a failure the worker's simulation reported (as opposed to
// transport loss); it is deterministic and aborts the run.
type appError struct{ msg string }

func (e *appError) Error() string { return e.msg }

// corruptError reports a streamed unit whose digest verification
// failed; the worker that sent it is quarantined.
type corruptError struct {
	worker string
	seq    int
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("dist: unit %d from worker %s failed digest verification", e.seq, e.worker)
}

// runShard executes one shard range on one worker, folding its streamed
// units into the merge. Every unit's digest is recomputed before the
// offer; the first mismatch aborts the stream with a corruptError. It
// returns the number of verified unit records received (the contiguous
// prefix of the range); a nil error means the trailer arrived.
func (r *shardedRun) runShard(ctx context.Context, w *workerRef, sr shardRange) (received int, err error) {
	r.sink.emit(sim.Progress{Kind: sim.EventShardStart, Stage: "sample", Offset: r.spec.Plan.J,
		Population: r.pop, Total: sr.hi - sr.lo, Shard: sr.idx, Shards: r.shards})

	body, err := json.Marshal(shardMsg{Spec: r.spec, Lo: sr.lo, Hi: sr.hi, Shard: sr.idx, Shards: r.shards})
	if err != nil {
		return 0, &appError{msg: fmt.Sprintf("dist: encode shard: %v", err)}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return 0, &appError{msg: fmt.Sprintf("dist: build shard request: %v", err)}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.c.client.Do(hreq)
	if err != nil {
		return 0, err // transport
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
		return 0, &appError{msg: fmt.Sprintf("dist: worker %s rejected shard: %s: %s",
			w.url, resp.Status, bytes.TrimSpace(msg))}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var rec shardRecord
		if derr := dec.Decode(&rec); derr != nil {
			// EOF (clean or mid-record) without a trailer means the
			// worker died mid-stream: a transport failure.
			return received, fmt.Errorf("dist: shard stream from %s broke: %w", w.url, derr)
		}
		switch {
		case rec.Error != "":
			return received, &appError{msg: rec.Error}
		case rec.Unit != nil:
			if rec.Unit.digest() != rec.Unit.Digest {
				return received, &corruptError{worker: w.url, seq: rec.Unit.Seq}
			}
			r.smu.Lock()
			r.journal.append(journalLine{Unit: rec.Unit})
			r.m.Offer(rec.Unit.rangeUnit())
			r.smu.Unlock()
			received++
			if ok, _ := r.c.opt.Faults.fire(FaultKillCoordinator); ok {
				r.c.die()
			}
		case rec.Retry != nil:
			r.sink.emit(sim.Progress{Kind: sim.EventRetry, Stage: "sample", Offset: r.spec.Plan.J,
				Attempt: rec.Retry.Attempt, Note: rec.Retry.Op + ": " + rec.Retry.Err,
				Population: r.pop, Total: r.total, Shard: sr.idx, Shards: r.shards})
		case rec.Done != nil:
			r.sink.emit(sim.Progress{Kind: sim.EventShardDone, Stage: "sample", Offset: r.spec.Plan.J,
				Replayed: received, Population: r.pop, Total: sr.hi - sr.lo,
				Shard: sr.idx, Shards: r.shards})
			return received, nil
		}
	}
}

// eventSink serializes progress callbacks across the run's goroutines.
type eventSink struct {
	mu sync.Mutex
	fn sim.ProgressFunc
}

func newSink(fn sim.ProgressFunc) *eventSink {
	if fn == nil {
		return nil
	}
	return &eventSink{fn: fn}
}

func (s *eventSink) emit(ev sim.Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fn(ev)
}

// Handler returns the coordinator's HTTP API. After die (the injected
// coordinator kill) every request — including in-flight streams — is
// severed exactly as a process death would sever it.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/sweeps/{hash}", c.handleSweepGet)
	mux.HandleFunc("POST /v1/runs", c.handleRunCreate)
	mux.HandleFunc("GET /v1/runs/{id}/stream", c.handleRunStream)
	mux.HandleFunc("DELETE /v1/runs/{id}", c.handleRunCancel)
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if c.killed() {
			panic(http.ErrAbortHandler)
		}
		// Cap the body: a declared length past the cap is refused before
		// anything is read, an undeclared one fails the handler's read at
		// the cap with *http.MaxBytesError (bodyStatus: 413 as well).
		if req.ContentLength > maxJSONBody {
			http.Error(rw, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		req.Body = http.MaxBytesReader(rw, req.Body, maxJSONBody)
		mux.ServeHTTP(rw, req)
	})
}

// maxJSONBody caps a request body. Every request the coordinator takes
// is a JSON control message (a run request is a few hundred bytes);
// without the cap anything that can reach the port could make it
// buffer arbitrary memory.
const maxJSONBody = 1 << 20

// bodyStatus is the reply status for a body that failed to read or
// decode with err (nil: decoded but unacceptable): 413 past the
// Handler's cap, 400 otherwise.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (c *Coordinator) handleRegister(rw http.ResponseWriter, req *http.Request) {
	var msg registerMsg
	if err := json.NewDecoder(req.Body).Decode(&msg); err != nil || msg.URL == "" {
		http.Error(rw, "bad register body", bodyStatus(err))
		return
	}
	c.addWorker(msg.URL, time.Duration(msg.IntervalNs))
	rw.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleHeartbeat(rw http.ResponseWriter, req *http.Request) {
	var msg heartbeatMsg
	if err := json.NewDecoder(req.Body).Decode(&msg); err != nil || msg.URL == "" {
		http.Error(rw, "bad heartbeat body", bodyStatus(err))
		return
	}
	w := c.workerByURL(msg.URL)
	if w == nil {
		// A beat from a worker the coordinator forgot (restart): tell it
		// to re-register.
		http.Error(rw, "unknown worker; re-register", http.StatusNotFound)
		return
	}
	w.beat()
	rw.WriteHeader(http.StatusNoContent)
}

// handleSweepGet serves the sweep an active run of {hash} pinned, in
// the store's byte stream; 404 when no run of that hash holds one.
func (c *Coordinator) handleSweepGet(rw http.ResponseWriter, req *http.Request) {
	hash := req.PathValue("hash")
	c.mu.Lock()
	run := c.active[hash]
	var set *checkpoint.Set
	if run != nil {
		set = run.set
	}
	c.mu.Unlock()
	if set == nil {
		http.Error(rw, "sweep not available", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	if err := checkpoint.EncodeSet(rw, run.key, set); err != nil {
		// Headers are gone; the broken stream surfaces as a decode
		// failure on the worker, which retries the fetch.
		c.logf("dist: sweep download %s failed: %v", hash, err)
	}
}

// handleRunCreate accepts a run and replies 202 with its stable ID and
// the coordinator epoch; the caller streams events from
// GET /v1/runs/{id}/stream.
func (c *Coordinator) handleRunCreate(rw http.ResponseWriter, req *http.Request) {
	var wr wireRequest
	if err := json.NewDecoder(req.Body).Decode(&wr); err != nil {
		http.Error(rw, "bad run body", bodyStatus(err))
		return
	}
	if err := distributable(wr.request()); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	rs, err := c.accept(&wr)
	switch {
	case errors.Is(err, ErrBusy):
		http.Error(rw, err.Error(), http.StatusTooManyRequests)
		return
	case err != nil:
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusAccepted)
	json.NewEncoder(rw).Encode(runCreated{ID: rs.id, Epoch: c.epoch})
}

// handleRunStream serves a run's event history as NDJSON from
// ?from=<seq> (exclusive), blocking for new events until the terminal
// record. A client whose ?epoch does not match this incarnation is
// streamed from the recovered history's start instead — its high-water
// mark refers to events that died with the previous process.
func (c *Coordinator) handleRunStream(rw http.ResponseWriter, req *http.Request) {
	rs := c.runByID(req.PathValue("id"))
	if rs == nil {
		http.Error(rw, "unknown run", http.StatusNotFound)
		return
	}
	var from int64
	if q := req.URL.Query(); q.Get("epoch") == c.epoch {
		from, _ = strconv.ParseInt(q.Get("from"), 10, 64) //simlint:discard malformed offset restarts the stream from zero, which is always safe
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.Header().Set("X-Run-Epoch", c.epoch)
	rw.WriteHeader(http.StatusOK)
	fl, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	for {
		envs, done, wait := rs.next(from)
		for _, env := range envs {
			if err := enc.Encode(env); err != nil {
				return // consumer hung up
			}
			from = env.Seq
		}
		if fl != nil && len(envs) > 0 {
			fl.Flush()
		}
		if done {
			return
		}
		if wait == nil {
			continue // drained a batch; more may already be buffered
		}
		select {
		case <-wait:
		case <-req.Context().Done():
			return
		case <-c.lifeCtx.Done():
			panic(http.ErrAbortHandler) // the kill severs in-flight streams
		}
	}
}

// handleRunCancel aborts a run on the client's behalf; the run reaches
// a terminal error state and its journal is removed.
func (c *Coordinator) handleRunCancel(rw http.ResponseWriter, req *http.Request) {
	rs := c.runByID(req.PathValue("id"))
	if rs == nil {
		http.Error(rw, "unknown run", http.StatusNotFound)
		return
	}
	rs.cancel()
	rw.WriteHeader(http.StatusNoContent)
}
