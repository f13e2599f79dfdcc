package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/uarch"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Self is this worker's advertised base URL — the address the
	// coordinator dispatches shards to (required for Register).
	Self string
	// Workers is the replay worker-pool size per shard (<= 0: one per
	// core). Purely a throughput knob; results are bit-identical at any
	// value.
	Workers int
	// MemCacheBytes caps the worker's local sweep cache (0 = unbounded).
	// Shards of one run hit this cache after the first fetch.
	MemCacheBytes int64
	// PollInterval is ignored: workers no longer poll for a sweep (the
	// coordinator sweeps before it dispatches). It stays only so
	// existing callers compile.
	PollInterval time.Duration
	// Heartbeat, when positive, is the liveness heartbeat interval
	// announced at registration and driven by Worker.Heartbeat; the
	// coordinator stops dispatching to a worker silent for three
	// intervals. 0 disables heartbeats (the worker is never expired for
	// silence).
	Heartbeat time.Duration
	// Retries, RetryBase and RetryMax shape the capped exponential
	// backoff (with jitter) on coordinator RPCs — register, heartbeat
	// and sweep fetch. Zero values select the defaults: 4 attempts,
	// 50ms base, 2s cap.
	Retries             int
	RetryBase, RetryMax time.Duration
	// Faults, when non-nil, arms the deterministic fault-injection
	// harness on this worker's hooks (kill-mid-stream, corrupt-frame,
	// drop/delay RPC). Testing only.
	Faults *Faults
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Worker executes shard ranges for a coordinator: it fetches the run's
// snapshot set from the coordinator (which swept it), replays its
// assigned range through the engine, and streams per-unit results back
// in stream order. All methods are safe for concurrent use; concurrent
// shards of one run share the cached set.
type Worker struct {
	opt      WorkerOptions
	policy   retryPolicy
	client   *http.Client
	cache    *checkpoint.MemCache
	replayed atomic.Uint64
}

// NewWorker builds a worker.
func NewWorker(opt WorkerOptions) *Worker {
	w := &Worker{
		opt:    opt,
		policy: retryPolicy{Attempts: opt.Retries, Base: opt.RetryBase, Max: opt.RetryMax}.withDefaults(),
		client: faultClient(opt.Faults),
		cache:  checkpoint.NewMemCache(),
	}
	w.cache.MaxBytes = opt.MemCacheBytes
	return w
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// ReplayedUnits returns how many units this worker has replayed across
// all shards. Summed over the fleet it bounds the replay work of a
// run: after a coordinator crash/recovery, the fleet-wide sum must not
// exceed the run's unit count by more than the unjournaled suffix.
func (w *Worker) ReplayedUnits() uint64 { return w.replayed.Load() }

// httpRetryable classifies an HTTP status as transient (worth a
// backoff retry) or deterministic.
func httpRetryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// rpc sends one request to the coordinator and returns the response
// when its status is 2xx or one of also; the caller closes the body.
// Any other status is an error carrying a snippet of the reply —
// permanent (retry gives up at once) unless the status is transient.
// Transport errors stay retryable. contentType "" sends no body.
func (w *Worker) rpc(ctx context.Context, method, path, contentType string, body []byte, also ...int) (*http.Response, error) {
	var rd io.Reader
	if contentType != "" {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.opt.Coordinator+path, rd)
	if err != nil {
		return nil, permanent(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 || slices.Contains(also, resp.StatusCode) {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
	err = fmt.Errorf("dist: %s %s%s: %s: %s", method, w.opt.Coordinator, path, resp.Status, bytes.TrimSpace(msg))
	if !httpRetryable(resp.StatusCode) {
		return nil, permanent(err)
	}
	return nil, err
}

// Register announces the worker to its coordinator, retrying transient
// failures with capped exponential backoff.
func (w *Worker) Register(ctx context.Context) error {
	return retry(ctx, w.policy, func(attempt int, err error) {
		w.logf("dist: register with %s failed (attempt %d): %v; retrying", w.opt.Coordinator, attempt, err)
	}, func() error {
		return w.registerOnce(ctx)
	})
}

func (w *Worker) registerOnce(ctx context.Context) error {
	body, err := json.Marshal(registerMsg{URL: w.opt.Self, IntervalNs: int64(w.opt.Heartbeat)})
	if err != nil {
		return permanent(err)
	}
	resp, err := w.rpc(ctx, http.MethodPost, "/v1/register", "application/json", body)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Heartbeat beats the coordinator every WorkerOptions.Heartbeat until
// ctx ends, keeping this worker live in the dispatch set. It returns
// immediately when no heartbeat interval is configured. A beat the
// coordinator rejects as unknown (its restart lost the registration)
// re-registers.
func (w *Worker) Heartbeat(ctx context.Context) {
	if w.opt.Heartbeat <= 0 {
		return
	}
	t := time.NewTicker(w.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := w.beatOnce(ctx); err != nil && ctx.Err() == nil {
			w.logf("dist: heartbeat: %v", err)
		}
	}
}

func (w *Worker) beatOnce(ctx context.Context) error {
	body, err := json.Marshal(heartbeatMsg{URL: w.opt.Self})
	if err != nil {
		return err
	}
	resp, err := w.rpc(ctx, http.MethodPost, "/v1/heartbeat", "application/json", body, http.StatusNotFound)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return w.Register(ctx)
	}
	return nil
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/shards", w.handleShard)
	return mux
}

func (w *Worker) handleShard(rw http.ResponseWriter, req *http.Request) {
	var msg shardMsg
	if err := json.NewDecoder(req.Body).Decode(&msg); err != nil {
		http.Error(rw, "bad shard body", http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	prog, err := program.Get(msg.Spec.Workload, msg.Spec.Length)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := msg.Spec.Config
	if cfg == (uarch.Config{}) {
		cfg = uarch.Config8Way()
	}
	plan := msg.Spec.Plan
	if err := plan.Validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	key := checkpoint.KeyFor(prog, cfg, plan.CheckpointParams())

	// From here the stream is committed: failures travel as Error
	// records, per-unit results as Unit records, flushed as they
	// happen so the coordinator folds them while the shard still runs.
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	fl, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	streamErr := false
	send := func(rec shardRecord) bool {
		if streamErr {
			return false
		}
		if err := enc.Encode(rec); err != nil {
			streamErr = true
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}

	onRetry := func(attempt int, err error) {
		send(shardRecord{Retry: &wireRetry{Op: "sweep fetch", Attempt: attempt, Err: err.Error()}})
	}
	set, err := w.ensureSet(ctx, key, onRetry)
	if err != nil {
		send(shardRecord{Error: err.Error()})
		return
	}

	lo, hi := msg.Lo, msg.Hi
	if hi > len(set.Units) {
		// The coordinator sizes shards from the expected unit count;
		// the captured count falls short when the program halts early.
		hi = len(set.Units)
	}
	opt := engine.Options{Workers: w.opt.Workers}
	err = engine.ReplayRange(ctx, prog, cfg, plan.U, set, lo, hi, opt, func(ru engine.RangeUnit) bool {
		if ok, _ := w.opt.Faults.fire(FaultKillMidStream); ok {
			w.opt.Faults.kill()
		}
		w.replayed.Add(1)
		// Seal the measurement end to end: the digest travels with the
		// unit and the coordinator recomputes it before every merge.
		u := sealUnit(ru)
		if ok, _ := w.opt.Faults.fire(FaultCorruptFrame); ok {
			u.Cycles ^= 1 // corrupt a covered field AFTER sealing
		}
		return send(shardRecord{Unit: u})
	})
	if err != nil {
		send(shardRecord{Error: err.Error()})
		return
	}
	send(shardRecord{Done: &shardDone{}})
}

// ensureSet returns the snapshot set for key: the local cache, else a
// fetch from the coordinator, which pins every active run's set before
// it dispatches a shard. Transient failures retry with backoff;
// onRetry observes each retried attempt.
func (w *Worker) ensureSet(ctx context.Context, key checkpoint.Key, onRetry func(int, error)) (*checkpoint.Set, error) {
	if set := w.cache.Get(key); set != nil {
		return set, nil
	}
	var set *checkpoint.Set
	err := retry(ctx, w.policy, onRetry, func() error {
		var ferr error
		set, ferr = w.fetchSet(ctx, key)
		return ferr
	})
	if err != nil {
		return nil, fmt.Errorf("dist: fetch sweep %s: %w", key.Hash(), err)
	}
	w.cache.Put(key, set)
	return set, nil
}

// fetchSet downloads the run's sweep. A sweep the coordinator does not
// hold (404) stays retryable like a transport failure.
func (w *Worker) fetchSet(ctx context.Context, key checkpoint.Key) (*checkpoint.Set, error) {
	resp, err := w.rpc(ctx, http.MethodGet, "/v1/sweeps/"+key.Hash(), "", nil, http.StatusNotFound)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("dist: sweep %s not available from the coordinator", key.Hash())
	}
	return checkpoint.DecodeSet(resp.Body, key)
}
