package dist

// The deterministic fault matrix: every scenario here drives the fleet
// through an injected fault (see faults.go) at a reproducible trigger
// point and asserts the run still completes with a report bit-identical
// to the local single-process engine.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sim"
)

// newFaultCluster wires a coordinator and one loopback worker per
// WorkerOptions entry (Coordinator/Self filled in; a fast retry base
// applied unless set). Fault plans are armed by the
// caller after this returns, so registration RPCs never consume
// occurrences.
func newFaultCluster(t *testing.T, copt Options, wopts []WorkerOptions) *cluster {
	t.Helper()
	coord, err := NewCoordinator(copt)
	if err != nil {
		t.Fatal(err)
	}
	csrv := httptest.NewServer(coord.Handler())
	t.Cleanup(csrv.Close)
	cl := &cluster{coord: coord, coordURL: csrv.URL}
	for i := range wopts {
		opt := wopts[i]
		opt.Coordinator = csrv.URL
		if opt.Workers == 0 {
			opt.Workers = 1
		}
		if opt.RetryBase == 0 {
			opt.RetryBase = time.Millisecond
		}
		var h http.Handler
		wsrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		t.Cleanup(wsrv.Close)
		opt.Self = wsrv.URL
		w := NewWorker(opt)
		h = w.Handler()
		if err := w.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		cl.workers = append(cl.workers, w)
	}
	return cl
}

// TestFaultKillMidStream kills a worker on its 6th replayed unit; the
// shard requeues to the survivor and the merged report is untouched.
func TestFaultKillMidStream(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	f := NewFaults()
	cl := newFaultCluster(t, Options{}, []WorkerOptions{{Faults: f}, {}})
	f.Arm(FaultKillMidStream, 5, 1)

	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "kill-mid-stream run", rep.Result(), want)
	if f.Fired(FaultKillMidStream) != 1 {
		t.Fatalf("kill-mid-stream fired %d times, want 1", f.Fired(FaultKillMidStream))
	}
}

// TestRetrySurfaced drops the worker's first two coordinator RPCs after
// dispatch (the sweep fetch): the worker retries with backoff and each
// retried attempt surfaces as an EventRetry progress event naming the
// operation, while the run itself is unharmed.
func TestRetrySurfaced(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	f := NewFaults()
	cl := newFaultCluster(t, Options{}, []WorkerOptions{{Faults: f}})
	f.Arm(FaultDropRPC, 0, 2)

	var mu sync.Mutex
	var retries []sim.Progress
	req.Progress = func(ev sim.Progress) {
		if ev.Kind == sim.EventRetry {
			mu.Lock()
			retries = append(retries, ev)
			mu.Unlock()
		}
	}
	rep, err := cl.coord.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "retried run", rep.Result(), want)
	if f.Fired(FaultDropRPC) != 2 {
		t.Fatalf("drop-rpc fired %d times, want 2", f.Fired(FaultDropRPC))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) < 2 {
		t.Fatalf("got %d EventRetry events, want >= 2", len(retries))
	}
	for i, ev := range retries[:2] {
		if ev.Attempt != i+1 {
			t.Errorf("retry %d: Attempt = %d, want %d", i, ev.Attempt, i+1)
		}
		if !strings.Contains(ev.Note, "sweep fetch") {
			t.Errorf("retry %d: Note %q does not name the operation", i, ev.Note)
		}
	}
}

// TestClientFallback points a client with a local fallback session at a
// dead coordinator: after its connect retries (each surfaced as
// EventRetry) it emits EventFallback and completes the run in-process,
// bit-identical to a plain local run.
func TestClientFallback(t *testing.T) {
	req := testRequest()
	want := baseline(t, req)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // nothing listens: every connect fails

	local, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	c := NewClient(dead.URL)
	c.Fallback = local
	c.Retries = 2
	c.RetryBase = time.Millisecond

	var mu sync.Mutex
	var retries, fallbacks int
	req.Progress = func(ev sim.Progress) {
		mu.Lock()
		switch ev.Kind {
		case sim.EventRetry:
			retries++
		case sim.EventFallback:
			fallbacks++
		}
		mu.Unlock()
	}
	rep, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "fallback run", rep.Result(), want)
	mu.Lock()
	defer mu.Unlock()
	if retries != 1 {
		t.Errorf("got %d EventRetry events, want 1 (2 attempts)", retries)
	}
	if fallbacks != 1 {
		t.Errorf("got %d EventFallback events, want 1", fallbacks)
	}
}

// TestClientNoFallbackOnRejection: a deterministic 4xx rejection must
// not degrade to a local run (it would fail or diverge identically).
func TestClientNoFallbackOnRejection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		http.Error(rw, "no such workload", http.StatusBadRequest)
	}))
	defer srv.Close()

	local, err := sim.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	c := NewClient(srv.URL)
	c.Fallback = local
	c.Retries = 2
	c.RetryBase = time.Millisecond
	if _, err := c.Run(context.Background(), testRequest()); err == nil {
		t.Fatal("run succeeded; want the coordinator's rejection surfaced")
	}
}

// TestHeartbeatExpiry: a worker that registered with a heartbeat
// interval and then fell silent leaves the live dispatch set after
// three intervals, and one beat restores it.
func TestHeartbeatExpiry(t *testing.T) {
	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord.addWorker("http://worker-a", 5*time.Millisecond)
	coord.AddWorker("http://worker-b") // no heartbeat: exempt from expiry

	if n := len(coord.liveWorkers()); n != 2 {
		t.Fatalf("live workers at registration = %d, want 2", n)
	}
	time.Sleep(60 * time.Millisecond)
	live := coord.liveWorkers()
	if len(live) != 1 || live[0].url != "http://worker-b" {
		t.Fatalf("after silence: live = %v, want only the heartbeat-less worker", workerURLs(live))
	}
	coord.workerByURL("http://worker-a").beat()
	if n := len(coord.liveWorkers()); n != 2 {
		t.Fatalf("live workers after beat = %d, want 2", n)
	}
}

func workerURLs(ws []*workerRef) []string {
	var urls []string
	for _, w := range ws {
		urls = append(urls, w.url)
	}
	return urls
}

// TestBodyCaps: the coordinator refuses a request body past its cap
// with 413, whether the length is declared (refused before a byte of
// body is read, so the test sends none, over a raw connection) or not
// (the read fails at the cap).
func TestBodyCaps(t *testing.T) {
	coord, err := NewCoordinator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/runs HTTP/1.1\r\nHost: coordinator\r\nContent-Length: %d\r\n\r\n", maxJSONBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap declared body: %s, want 413", resp.Status)
	}
	// io.MultiReader hides the length, so the body goes out chunked.
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/register",
		io.MultiReader(strings.NewReader(`{"URL":"`+strings.Repeat("x", maxJSONBody))))
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap chunked body: %s, want 413", resp.Status)
	}
	if n := len(coord.liveWorkers()); n != 0 {
		t.Fatalf("over-cap register body registered %d worker(s)", n)
	}
}
