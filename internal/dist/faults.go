package dist

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FaultPoint names one deterministic fault-injection site in the
// distributed service. The harness exists so the crash/resume matrix —
// kill the coordinator mid-sweep or mid-merge, sever a shard stream
// mid-flight, corrupt a frame, drop or delay RPCs — runs as ordinary
// unit tests with reproducible trigger points instead of wall-clock
// races.
type FaultPoint string

const (
	// FaultKillMidSweep kills the coordinator, as FaultKillCoordinator
	// does, on the n-th unit its sweep captures. The sweep stops at its
	// next check of the run's context and leaves the store's journal of
	// the units captured so far; a restarted coordinator recovers the
	// run and resumes the sweep from it.
	FaultKillMidSweep FaultPoint = "kill-mid-sweep"
	// FaultKillMidStream kills the shard handler on the n-th replayed
	// unit record — a worker dying mid-stream after the sweep.
	FaultKillMidStream FaultPoint = "kill-mid-stream"
	// FaultDropRPC fails the worker's n-th outbound coordinator RPC
	// (sweep fetch, register, heartbeat) with a transport error before
	// it leaves the process.
	FaultDropRPC FaultPoint = "drop-rpc"
	// FaultDelayRPC delays outbound coordinator RPCs by the armed
	// duration.
	FaultDelayRPC FaultPoint = "delay-rpc"
	// FaultKillCoordinator kills the coordinator process-style on the
	// n-th unit merged: the serving context is cancelled, in-flight
	// handlers abort their connections, and new requests are refused —
	// everything short of actually exiting. The run journal on disk is
	// what a restarted coordinator (a fresh NewCoordinator over the same
	// store dir) recovers from.
	FaultKillCoordinator FaultPoint = "kill-coordinator"
	// FaultCorruptFrame flips a digest-covered field of the n-th unit
	// record a worker streams back AFTER its digest was computed — a
	// silently corrupted wire frame or misbehaving worker. The
	// coordinator must detect the mismatch, quarantine the worker, and
	// re-run the shard elsewhere.
	FaultCorruptFrame FaultPoint = "corrupt-frame"
)

// errInjectedDrop is the transport error FaultDropRPC synthesizes.
var errInjectedDrop = fmt.Errorf("dist: injected rpc drop")

// Faults is a deterministic fault-injection plan, shared by the worker
// and coordinator hooks. Arm a point with a trigger offset and count;
// each pass of execution over the point consumes one occurrence. The
// zero of everything is "no fault"; a nil *Faults disarms all hooks.
// All methods are safe for concurrent use.
type Faults struct {
	mu   sync.Mutex
	arms map[FaultPoint]*faultArm
}

type faultArm struct {
	after int // occurrences to let pass first
	times int // how many triggers remain
	delay time.Duration
	seen  int
	fired int
}

// NewFaults returns an empty (fully disarmed) plan.
func NewFaults() *Faults { return &Faults{arms: make(map[FaultPoint]*faultArm)} }

// Arm schedules point to trigger `times` times, starting after `after`
// occurrences have passed untouched. Re-arming a point resets it.
func (f *Faults) Arm(point FaultPoint, after, times int) {
	f.ArmDelay(point, after, times, 0)
}

// ArmDelay is Arm with a duration payload (used by FaultDelayRPC).
func (f *Faults) ArmDelay(point FaultPoint, after, times int, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arms[point] = &faultArm{after: after, times: times, delay: d}
}

// Fired reports how many times point has triggered.
func (f *Faults) Fired(point FaultPoint) int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if a := f.arms[point]; a != nil {
		return a.fired
	}
	return 0
}

// fire consumes one occurrence of point and reports whether it
// triggers, with the armed delay payload.
func (f *Faults) fire(point FaultPoint) (bool, time.Duration) {
	if f == nil {
		return false, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.arms[point]
	if a == nil {
		return false, 0
	}
	a.seen++
	if a.seen <= a.after || a.fired >= a.times {
		return false, 0
	}
	a.fired++
	return true, a.delay
}

// kill severs the current HTTP handler exactly like a process death:
// the connection aborts mid-stream with no trailer and no error record.
// (An error record would travel as a deterministic appError and abort
// the whole run — the opposite of what a crash looks like.)
func (f *Faults) kill() {
	panic(http.ErrAbortHandler)
}

// faultTransport wraps an http.RoundTripper with the drop/delay RPC
// faults for requests to coordinator endpoints.
type faultTransport struct {
	faults *Faults
	next   http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/v1/") {
		return t.next.RoundTrip(req)
	}
	if ok, d := t.faults.fire(FaultDelayRPC); ok && d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if ok, _ := t.faults.fire(FaultDropRPC); ok {
		return nil, fmt.Errorf("%w: %s %s", errInjectedDrop, req.Method, req.URL.Path)
	}
	return t.next.RoundTrip(req)
}

// faultClient builds the worker's HTTP client, wiring the RPC faults
// when armed.
func faultClient(f *Faults) *http.Client {
	if f == nil {
		return &http.Client{}
	}
	return &http.Client{Transport: &faultTransport{faults: f, next: http.DefaultTransport}}
}
