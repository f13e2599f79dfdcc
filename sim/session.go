package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Session is the long-lived service object behind Session.Run: it owns
// the checkpoint store, caches experiment state, supplies execution defaults, and deduplicates concurrent
// sweeps. All methods are safe for concurrent use.
type Session struct {
	set settings

	store *checkpoint.Store
	// sweeps is the in-memory sweep cache of storeless sessions: the
	// singleflight's leader parks its captured launch states here so
	// waiters (and later requests) reuse them without a disk store.
	// Nil when a store is attached — the store already shares sweeps.
	sweeps *checkpoint.MemCache

	mu      sync.Mutex
	closed  bool
	exps    map[string]*experiments.Context
	flights map[string]*flight
}

// flight is one in-progress sweep generation for a store key; waiters
// block on done, then find the committed entry in the store.
type flight struct {
	done chan struct{}
}

// settings collects the session defaults the options mutate.
type settings struct {
	storeDir    string
	storeMax    int64
	memCacheMax int64
	// engine holds the session-wide execution defaults — Workers, Alpha,
	// Keyframe — in the struct the engine takes them in;
	// each run fills the per-request fields on a copy (engineOptions).
	engine    engine.Options
	logf      func(format string, args ...any)
	progress  ProgressFunc
	defLength uint64
	defUnits  uint64
}

// Option configures a Session at Open.
type Option func(*settings) error

// WithStore attaches an on-disk checkpoint store rooted at dir:
// functional sweeps are persisted and shared across runs of the
// session (and across sessions pointed at the same directory), and
// concurrent requests needing the same sweep are deduplicated.
func WithStore(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("sim: empty store directory")
		}
		s.storeDir = dir
		return nil
	}
}

// WithStoreLimit caps the store's total size in bytes;
// least-recently-used entries are evicted on commit.
func WithStoreLimit(maxBytes int64) Option {
	return func(s *settings) error {
		if maxBytes < 0 {
			return fmt.Errorf("sim: negative store limit %d", maxBytes)
		}
		s.storeMax = maxBytes
		return nil
	}
}

// WithMemCacheBytes caps the storeless session's in-memory sweep cache
// at maxBytes of snapshot payload; least-recently-used sweeps are
// evicted on insert (the sweep just captured is never evicted, so the
// run that paid for it always reuses it). 0 — the default — leaves the
// cache unbounded, the pre-existing behavior. Sessions with an on-disk
// store ignore it (the store has its own cap, WithStoreLimit).
func WithMemCacheBytes(maxBytes int64) Option {
	return func(s *settings) error {
		if maxBytes < 0 {
			return fmt.Errorf("sim: negative sweep cache limit %d", maxBytes)
		}
		s.memCacheMax = maxBytes
		return nil
	}
}

// WithWorkers sets the default replay worker-pool size for requests
// that do not set their own (0 or negative: one worker per core).
func WithWorkers(n int) Option {
	return func(s *settings) error {
		s.engine.Workers = n
		return nil
	}
}

// WithAlpha sets the default confidence parameter (default Alpha997).
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("sim: confidence parameter %v outside (0,1)", alpha)
		}
		s.engine.Alpha = alpha
		return nil
	}
}

// WithKeyframe sets the keyframe interval of delta-encoded checkpoint
// capture: every n-th captured unit carries a full snapshot (warm state
// and memory page table), the units between carry dirty-block and
// dirty-page deltas. 0 keeps the built-in default; 1 disables deltas
// (every unit a full snapshot). The interval trades store-entry and
// in-memory snapshot size against per-replay materialization work; it
// never changes results, and existing store entries stay valid (the
// interval is excluded from the store key).
func WithKeyframe(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("sim: negative keyframe interval %d", n)
		}
		s.engine.Keyframe = n
		return nil
	}
}

// WithLog routes store and session log lines (hits, misses, evictions)
// to fn; the default discards them.
func WithLog(fn func(format string, args ...any)) Option {
	return func(s *settings) error {
		s.logf = fn
		return nil
	}
}

// WithProgress attaches a session-level progress callback receiving
// every run's events (request-level callbacks are invoked as well).
func WithProgress(fn ProgressFunc) Option {
	return func(s *settings) error {
		s.progress = fn
		return nil
	}
}

// WithDefaults overrides the session's default workload length and
// target unit count for requests that leave them zero.
func WithDefaults(length, units uint64) Option {
	return func(s *settings) error {
		if length == 0 || units == 0 {
			return fmt.Errorf("sim: zero default length or units")
		}
		s.defLength, s.defUnits = length, units
		return nil
	}
}

// Open creates a Session. With no options the session runs fully in
// memory (no checkpoint store), one replay worker per core, at the
// paper's 99.7% confidence reporting.
func Open(opts ...Option) (*Session, error) {
	set := settings{
		engine:    engine.Options{Alpha: stats.Alpha997},
		defLength: DefaultLength,
		defUnits:  DefaultUnits,
	}
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return nil, err
		}
	}
	s := &Session{
		set:     set,
		exps:    make(map[string]*experiments.Context),
		flights: make(map[string]*flight),
	}
	if set.storeDir != "" {
		store, err := checkpoint.OpenStore(set.storeDir)
		if err != nil {
			return nil, err
		}
		store.MaxBytes = set.storeMax
		store.Logf = set.logf
		s.store = store
	} else {
		// Storeless sessions still deduplicate and reuse sweeps — in
		// memory, for the session's lifetime (bounded when the session
		// asks for it).
		s.sweeps = checkpoint.NewMemCache()
		s.sweeps.MaxBytes = set.memCacheMax
	}
	return s, nil
}

// Close marks the session closed; subsequent Runs fail. In-flight runs
// are not interrupted (cancel their contexts for that).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// StoreStats returns the checkpoint store's lifetime hit/miss counts;
// ok is false when the session has no store.
func (s *Session) StoreStats() (hits, misses uint64, ok bool) {
	if s.store == nil {
		return 0, 0, false
	}
	hits, misses = s.store.Stats()
	return hits, misses, true
}

// StoreDir returns the checkpoint store directory ("" without a store).
func (s *Session) StoreDir() string {
	if s.store == nil {
		return ""
	}
	return s.store.Dir()
}

// SweepCacheStats returns the in-memory sweep cache's lifetime
// hit/miss/eviction counts (evictions stay zero unless the cache is
// bounded with WithMemCacheBytes); ok is false when the session runs
// with an on-disk store (which shares sweeps instead — see StoreStats).
func (s *Session) SweepCacheStats() (hits, misses, evictions uint64, ok bool) {
	if s.sweeps == nil {
		return 0, 0, 0, false
	}
	hits, misses, evictions = s.sweeps.Stats()
	return hits, misses, evictions, true
}

// Workload returns the generated workload for (name, length), building
// it on first use and caching it for the whole process: every session
// shares it. length 0 selects the session default. Concurrent requests
// for one (name, length) generate it once; the rest wait for the
// result.
func (s *Session) Workload(name string, length uint64) (*Workload, error) {
	if length == 0 {
		length = s.set.defLength
	}
	return program.Get(name, length)
}

// Reference runs (uncached) the full-stream detailed simulation of the
// workload on cfg — the ground truth sampling estimates are judged
// against (a zero cfg selects the 8-way baseline). chunk is the
// per-chunk measurement granularity. The detailed run is not
// interruptible; ctx is checked before it starts.
func (s *Session) Reference(ctx context.Context, workload string, length, chunk uint64, cfg Config) (*Reference, error) {
	if err := s.runnable(ctx); err != nil {
		return nil, err
	}
	p, err := s.Workload(workload, length)
	if err != nil {
		return nil, err
	}
	return smarts.FullRun(p, s.config(cfg), chunk)
}

// ExperimentNames lists the runnable experiment ids.
func ExperimentNames() []string { return experiments.Names() }

// Report is the result of one Session.Run.
type Report struct {
	// Results holds the sampling runs: one entry for plain requests,
	// one per offset (aligned with Offsets) for multi-offset requests,
	// and the final run of a procedure. Empty for experiments.
	Results []*Result
	// Offsets echoes the phase offsets of a multi-offset request.
	Offsets []uint64
	// Procedure reports both steps of a procedure request.
	Procedure *ProcedureResult
	// ExperimentOutput is the formatted table/figure of an experiment
	// request.
	ExperimentOutput string
	// CPI and EPI are the final estimates at the request's confidence
	// (the first offset's, for multi-offset runs; zero for
	// experiments).
	CPI, EPI Estimate
	// Elapsed is the end-to-end wall-clock time of the request.
	Elapsed time.Duration
}

// Result returns the primary sampling result (the first offset's run,
// or the procedure's final run); nil for experiment reports.
func (r *Report) Result() *Result {
	if len(r.Results) > 0 {
		return r.Results[0]
	}
	return nil
}

// Run executes one request. Every mode honors ctx: cancellation or
// deadline expiry stops the sweep and the worker pool, aborts any
// staged store entry, and returns ctx.Err().
func (s *Session) Run(ctx context.Context, req *Request) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if err := s.runnable(ctx); err != nil {
		return nil, err
	}
	start := wallclock.Now()

	if req.Experiment != "" {
		rep, err := s.runExperiment(ctx, req)
		if err != nil {
			return nil, err
		}
		rep.Elapsed = wallclock.Since(start)
		return rep, nil
	}

	prog, err := s.Workload(req.Workload, req.Length)
	if err != nil {
		return nil, err
	}
	cfg := s.config(req.Config)
	sink := newProgressSink(s.set.progress, req.Progress)
	alpha := s.effAlpha(req)

	var rep *Report
	switch {
	case req.Procedure != nil:
		rep, err = s.runProcedure(ctx, req, prog, cfg, sink, alpha)
	case len(req.Offsets) > 0:
		rep, err = s.runPhases(ctx, req, prog, cfg, sink, alpha)
	default:
		var res *Result
		res, err = s.runPlan(ctx, req, prog, cfg, s.plan(req, prog, cfg), sink, "sample")
		if err == nil {
			rep = &Report{
				Results: []*Result{res},
				CPI:     res.CPIEstimate(alpha),
				EPI:     res.EPIEstimate(alpha),
			}
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Elapsed = wallclock.Since(start)
	return rep, nil
}

// runnable gates new work on session and context state.
func (s *Session) runnable(ctx context.Context) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("sim: session is closed")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// config resolves the effective machine configuration: only a fully
// zero Config selects the 8-way baseline; a custom literal (even one
// without a Name) is used as given and validated by the run.
func (s *Session) config(cfg Config) Config {
	if cfg == (Config{}) {
		return uarch.Config8Way()
	}
	return cfg
}

// workers is the request's worker count, else the session default; the
// engine resolves values <= 0 to one worker per core.
func (s *Session) workers(req *Request) int {
	if req.Workers != 0 {
		return req.Workers
	}
	return s.set.engine.Workers
}

// Package-level request defaults (overridable per session with
// WithDefaults).
const (
	// DefaultLength is the workload length requests fall back to.
	DefaultLength = 2_000_000
	// DefaultUnits is the target sampled-unit count requests fall back
	// to when they set neither K nor N.
	DefaultUnits = 400
)

// ResolvePlan returns the concrete sampling plan req describes against
// the generated workload prog — the request's knobs with the package
// defaults applied (U=1000, the config's recommended W, DefaultUnits
// target units). It is the plan a default-configured Session executes
// for req; the distributed service's coordinator and workers resolve it
// independently so both sides agree on unit indices without shipping a
// plan over the wire.
func ResolvePlan(req *Request, prog *Workload) Plan {
	return resolvePlan(req, prog, resolveConfig(req.Config), DefaultUnits)
}

// resolveConfig is the package-level form of Session.config.
func resolveConfig(cfg Config) Config {
	if cfg == (Config{}) {
		return uarch.Config8Way()
	}
	return cfg
}

// plan builds the sampling plan a request describes, with the session's
// defaults.
func (s *Session) plan(req *Request, prog *program.Program, cfg Config) Plan {
	return resolvePlan(req, prog, cfg, s.set.defUnits)
}

func resolvePlan(req *Request, prog *program.Program, cfg Config, defUnits uint64) Plan {
	u := req.U
	if u == 0 {
		u = 1000
	}
	w := req.W
	if w == 0 && req.Warming != NoWarming {
		w = smarts.RecommendedW(cfg)
	}
	var plan Plan
	if req.K > 0 {
		j := req.J
		if j >= req.K {
			j %= req.K
		}
		plan = Plan{U: u, W: w, K: req.K, J: j, Warming: req.Warming}
	} else {
		n := req.N
		if n == 0 {
			n = defUnits
		}
		plan = smarts.PlanForN(prog.Length, u, w, n, req.Warming, req.J)
	}
	plan.MaxUnits = req.MaxUnits
	return plan
}

// planTotals reports the progress denominators of one plan execution:
// the workload's unit population and the expected sampled-unit count.
func planTotals(plan Plan, prog *program.Program) (pop uint64, total int) {
	if prog == nil || plan.U == 0 {
		return 0, 0
	}
	pop = prog.Length / plan.U
	return pop, plan.CheckpointParams().ExpectedUnits(pop)
}

// engineOptions builds the engine options for one plan execution: the
// session-wide defaults with the request's fields filled in.
func (s *Session) engineOptions(req *Request) engine.Options {
	opt := s.set.engine
	opt.Workers = s.workers(req)
	// The effective alpha (request, else session) drives the progress
	// estimates, so they agree with the report.
	opt.Alpha = s.effAlpha(req)
	if !req.NoStore {
		opt.Store = s.store
		opt.Cache = s.sweeps
	}
	return opt
}

// unitEvents builds the per-unit observers of one sweep and the replay
// it feeds. Capture events carry offset and count against sweepTotal,
// the units the sweep captures across all of its offsets. Replay events
// carry their own offset j and count against its expectation, total,
// while their ETA runs over everything the sweep feeds (replay overlaps
// the sweep in the streamed schedule: it is the remaining pipeline time,
// not a serial-stage sum). The engine folds units from one goroutine,
// one per call, so replay clock and call count need no synchronization.
func (p *progressSink) unitEvents(stage string, offset, pop uint64, sweepTotal int) (
	onCaptured func(captured int), onReplayed func(j uint64, total, replayed int, est stats.Estimate)) {
	start := wallclock.Now()
	onCaptured = func(captured int) {
		p.emit(Progress{Kind: EventUnitCaptured, Stage: stage, Offset: offset, Captured: captured,
			Population: pop, Total: sweepTotal, ETA: wallclock.ETA(start, captured, sweepTotal)})
	}
	var replayStart time.Time
	replayedAll := 0
	onReplayed = func(j uint64, total, replayed int, est stats.Estimate) {
		if replayStart.IsZero() {
			replayStart = wallclock.Now()
		}
		replayedAll++
		p.emit(Progress{Kind: EventUnitReplayed, Stage: stage, Offset: j, Replayed: replayed, Estimate: est,
			Population: pop, Total: total, ETA: wallclock.ETA(replayStart, replayedAll, sweepTotal)})
	}
	return onCaptured, onReplayed
}

// runPlan executes one sampling plan: the classic serial loop when the
// request asks for it, the checkpointed engine otherwise — with
// concurrent sweeps for the same store key deduplicated.
func (s *Session) runPlan(ctx context.Context, req *Request, prog *program.Program, cfg Config, plan Plan, sink *progressSink, stage string) (*Result, error) {
	sink.emit(Progress{Kind: EventRunStart, Stage: stage, Offset: plan.J})

	var res *Result
	var err error
	if req.SerialLoop {
		res, err = smarts.SerialLoop(ctx, prog, cfg, plan)
	} else {
		opt := s.engineOptions(req)
		if sink != nil {
			pop, total := planTotals(plan, prog)
			onCaptured, onReplayed := sink.unitEvents(stage, plan.J, pop, total)
			opt.OnCaptured = onCaptured
			opt.OnReplayed = func(replayed int, est stats.Estimate) { onReplayed(plan.J, total, replayed, est) }
		}
		res, err = runShared(ctx, s, prog, cfg, plan.CheckpointParams(), opt, func() (*Result, error) {
			return smarts.RunSampledContext(ctx, prog, cfg, plan, opt)
		})
	}
	if err != nil {
		return nil, err
	}
	done := Progress{Kind: EventRunDone, Stage: stage, Offset: plan.J, Replayed: len(res.Units), Cached: res.SweepCached}
	if len(res.Units) > 0 {
		done.Estimate = res.CPIEstimate(s.effAlpha(req))
	}
	sink.emit(done)
	return res, nil
}

func (s *Session) effAlpha(req *Request) float64 {
	if req.Alpha != 0 {
		return req.Alpha
	}
	return s.set.engine.Alpha
}

// runPhases executes a multi-offset request: all offsets measured from
// one shared sweep (deduplicated under the multi-offset store key).
func (s *Session) runPhases(ctx context.Context, req *Request, prog *program.Program, cfg Config, sink *progressSink, alpha float64) (*Report, error) {
	plan := s.plan(req, prog, cfg)
	// Both execution modes enforce the same offset contract (the
	// engine's multi-offset capture would reject j >= k; the serial
	// loop must not silently wrap instead).
	for _, j := range req.Offsets {
		if j >= plan.K {
			return nil, fmt.Errorf("sim: phase offset %d must be below the sampling interval %d", j, plan.K)
		}
	}
	if req.SerialLoop {
		// The serial loop has no shared-sweep form; run each offset's
		// classic loop in sequence (bit-identical to individual runs).
		results := make([]*Result, len(req.Offsets))
		for i, j := range req.Offsets {
			pj := plan
			pj.J = j
			res, err := s.runPlan(ctx, req, prog, cfg, pj, sink, "sample")
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return phaseReport(req, results, alpha), nil
	}

	sink.emit(Progress{Kind: EventRunStart, Stage: "sample"})
	opt := s.engineOptions(req)
	sweepParams := plan.PhasesParams(req.Offsets)
	var onReplayed func(j uint64, replayed int, est stats.Estimate)
	if sink != nil {
		// A multi-offset sweep captures every offset's units in one
		// pass, so the capture denominator spans all offsets while each
		// offset's replay counts against its own expectation.
		pop, _ := planTotals(plan, prog)
		sweepTotal := sweepParams.ExpectedUnits(pop)
		perOffset := make(map[uint64]int, len(req.Offsets))
		for _, j := range req.Offsets {
			pj := plan
			pj.J = j
			_, perOffset[j] = planTotals(pj, prog)
		}
		onCaptured, replayed := sink.unitEvents("sample", 0, pop, sweepTotal)
		opt.OnCaptured = onCaptured
		onReplayed = func(j uint64, n int, est stats.Estimate) { replayed(j, perOffset[j], n, est) }
	}
	results, err := runShared(ctx, s, prog, cfg, sweepParams, opt, func() ([]*Result, error) {
		return smarts.RunSampledPhasesContext(ctx, prog, cfg, plan, req.Offsets, opt, onReplayed)
	})
	if err != nil {
		return nil, err
	}
	if len(results) > 0 {
		done := Progress{Kind: EventRunDone, Stage: "sample", Replayed: len(results[0].Units), Cached: results[0].SweepCached}
		if len(results[0].Units) > 0 {
			done.Estimate = results[0].CPIEstimate(alpha)
		}
		sink.emit(done)
	}
	return phaseReport(req, results, alpha), nil
}

func phaseReport(req *Request, results []*Result, alpha float64) *Report {
	rep := &Report{
		Results: results,
		Offsets: append([]uint64(nil), req.Offsets...),
	}
	if len(results) > 0 {
		rep.CPI = results[0].CPIEstimate(alpha)
		rep.EPI = results[0].EPIEstimate(alpha)
	}
	return rep
}

// runProcedure executes the two-step procedure, reusing the canonical
// calibration loop with the session's plan runner (progress events and
// sweep deduplication included).
func (s *Session) runProcedure(ctx context.Context, req *Request, prog *program.Program, cfg Config, sink *progressSink, alpha float64) (*Report, error) {
	spec := *req.Procedure
	nInit := req.N
	if nInit == 0 {
		nInit = s.set.defUnits
	}
	pc := smarts.DefaultProcedure(cfg, nInit)
	pc.J = req.J
	if req.U != 0 {
		pc.U = req.U
	}
	if req.W != 0 {
		pc.W = req.W
	}
	pc.Warming = req.Warming
	if spec.Eps != 0 {
		pc.Eps = spec.Eps
	}
	// alpha is already the request-else-session effective confidence;
	// an explicit spec overrides both.
	pc.Alpha = alpha
	if spec.Alpha != 0 {
		pc.Alpha = spec.Alpha
	}
	if spec.Overshoot != 0 {
		pc.Overshoot = spec.Overshoot
	}

	runner := func(ctx context.Context, stage string, plan Plan) (*Result, error) {
		return s.runPlan(ctx, req, prog, cfg, plan, sink, stage)
	}
	pr, err := smarts.RunProcedureWith(ctx, prog, cfg, pc, runner)
	if err != nil {
		return nil, err
	}
	final := pr.FinalResult()
	return &Report{
		Results:   []*Result{final},
		Procedure: pr,
		CPI:       pr.Final(),
		EPI:       final.EPIEstimate(pc.Alpha),
	}, nil
}

// runExperiment regenerates one of the paper's figures or tables.
func (s *Session) runExperiment(ctx context.Context, req *Request) (*Report, error) {
	scale := req.Scale
	if scale == "" {
		scale = "small"
	}
	ec, err := s.expContext(scale, req)
	if err != nil {
		return nil, err
	}
	cfg := s.config(req.Config)
	var buf bytes.Buffer
	out := io.Writer(&buf)
	if req.Output != nil {
		out = io.MultiWriter(req.Output, &buf)
	}
	if err := experiments.Run(ctx, req.Experiment, ec, cfg, out); err != nil {
		return nil, err
	}
	return &Report{ExperimentOutput: buf.String()}, nil
}

// expContext returns the session's shared experiment context for a
// (scale, execution mode) pair, creating it on first use. Program and
// reference caches are shared across every experiment request with the
// same pair. SerialLoop requests keep the experiments on the classic
// serial path — the mode that regenerates the historical figures and
// tables exactly.
func (s *Session) expContext(scale string, req *Request) (*experiments.Context, error) {
	sc, err := experiments.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	useStore := !req.NoStore && s.store != nil && !req.SerialLoop
	// The cache key carries every execution knob baked into the
	// context, so a NoStore request never inherits a store-attached
	// context (or vice versa). Worker counts beyond serial-vs-engine
	// are deliberately NOT in the key: engine results are bit-identical
	// at any count, and the context's expensive reference cache should
	// be shared across them (the first engine request's count sticks).
	mode := "engine"
	if req.SerialLoop {
		mode = "serial"
	}
	key := fmt.Sprintf("%s/%s/store=%v", scale, mode, useStore)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ec, ok := s.exps[key]; ok {
		return ec, nil
	}
	ec := experiments.NewContext(sc)
	if !req.SerialLoop {
		// The session's one declaration of the execution knobs (Keyframe,
		// Workers, ...) reaches the experiments' sweeps as it does
		// every sampling request's. Cache stays nil on purpose: the
		// session's sweep cache is unbounded by default and would retain
		// every sweep of every experiment.
		opt := s.set.engine
		opt.Workers = s.workers(req)
		if useStore {
			opt.Store = s.store
		}
		ec.Engine = &opt
	}
	s.exps[key] = ec
	return ec, nil
}

// sweepAvailable reports whether a committed sweep for key is reusable
// — from the on-disk store or the in-memory cache, whichever the
// session runs with.
func (s *Session) sweepAvailable(key checkpoint.Key) bool {
	if s.store != nil && s.store.Contains(key) {
		return true
	}
	if s.sweeps != nil && s.sweeps.Contains(key) {
		return true
	}
	return false
}

// runShared runs fn — one plan execution under opt whose capture sweep
// is params — deduplicated against concurrent requests for the same
// sweep: the first request becomes the leader and runs fn (sweeping and
// committing the entry — to the on-disk store, or to the in-memory
// sweep cache on storeless sessions); concurrent requests for the same
// key wait for the leader, then run fn themselves against the
// now-committed entry (a hit — no second sweep). If the leader failed
// or was cancelled before committing, each waiter retries leadership in
// turn, so one bad run never poisons the key. The result may be a
// single run or a per-offset slice.
//
// The key is the engine's own (engine.Options.SweepKey): the entry the
// leader commits is the entry the waiters look for, whatever session
// knobs reach the key. Deriving it here and again in the engine hashes
// the program once: the hash is memoized on the Program.
func runShared[T any](ctx context.Context, s *Session, prog *program.Program, cfg Config, params checkpoint.Params, opt engine.Options, fn func() (T, error)) (T, error) {
	if opt.Store == nil && opt.Cache == nil {
		return fn()
	}
	_, key := opt.SweepKey(prog, cfg, params)
	hash := key.Hash()
	for {
		s.mu.Lock()
		f, inFlight := s.flights[hash]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			s.flights[hash] = f
			s.mu.Unlock()

			res, err := fn()
			s.mu.Lock()
			delete(s.flights, hash)
			s.mu.Unlock()
			close(f.done)
			return res, err
		}
		s.mu.Unlock()

		select {
		case <-f.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if s.sweepAvailable(key) {
			// The leader committed; run against the entry (a hit).
			return fn()
		}
		// Leader failed or never committed (error, cancel): loop and
		// contend for leadership.
	}
}
