package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/sim"
)

const (
	// setupReps is how often set-up is repeated so setup_s is a median.
	setupReps = 3
	// minRequests is the least number of timed requests a run makes, even
	// when they outlast the requested measuring time.
	minRequests = 3
)

// requestSample is the cost of one timed request.
type requestSample struct {
	wall, cpu float64 // seconds
	allocMB   float64
}

// timeRequest sends one request and measures it. The heap is collected
// and the allocation counter read outside the timed region, so a request
// pays for its own garbage only.
func timeRequest(ctx context.Context, e *env) (requestSample, *sim.Report, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	rep, err := e.serve(ctx)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	e.settle()
	return requestSample{wall: wall, cpu: cpu, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6}, rep, err
}

// count tallies one request of e and reports whether it succeeded: no
// error, and the digest this request must reproduce.
func (r *result) count(e *env, rep *sim.Report, err error) bool {
	r.Attempted++
	if err == nil {
		if got := digest(rep); got != e.want {
			err = fmt.Errorf("report digest\n  got  %s\n  want %s", got, e.want)
		}
	}
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "%s: request %d failed: %v\n", r.Workload, r.Attempted, err)
	}
	return err == nil
}

// setUpMedian sets the workload up setupReps times, keeps the last
// environment and returns the set-up times in seconds.
func setUpMedian(ctx context.Context, w workload, seed uint64, scratch string, gold *golden) (*env, []float64, error) {
	var e *env
	var times []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, w, seed, scratch, gold); err != nil {
			return nil, nil, fmt.Errorf("set-up %s: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

// runEndToEnd measures one workload with tracing off: a closed loop of one
// client that sends the next request only when the previous report has
// returned, for the given number of seconds.
func runEndToEnd(ctx context.Context, w workload, seed uint64, seconds float64, scratch string, gold *golden) (*result, error) {
	e, setups, err := setUpMedian(ctx, w, seed, scratch, gold)
	if err != nil {
		return nil, err
	}
	defer e.close()

	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: make(map[string]value)}
	var walls, cpus, allocs []float64
	var last *sim.Report
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) || r.Attempted < minRequests {
		s, rep, err := timeRequest(ctx, e)
		if r.count(e, rep, err) {
			last = rep
			walls, cpus, allocs = append(walls, s.wall), append(cpus, s.cpu), append(allocs, s.allocMB)
		}
	}
	r.Metrics["failed_frac"] = one("ratio", float64(r.Failed)/float64(r.Attempted))
	r.Metrics["setup_s"] = value{Unit: "s", summary: summarize(setups)}
	r.Metrics["peak_rss_mb"] = one("MB", peakRSSMB())
	if last == nil {
		return r, nil
	}
	wall := summarize(walls)
	r.Metrics["wall_s"] = value{Unit: "s", summary: wall}
	r.Metrics["cpu_s"] = value{Unit: "s", summary: summarize(cpus)}
	r.Metrics["alloc_mb"] = value{Unit: "MB", summary: summarize(allocs)}
	if hi, pct, ok := highPercentile(walls); ok {
		r.Metrics[fmt.Sprintf("wall_hi_s.p%.0f", pct)] = one("s", hi)
	}
	r.Metrics["minst_per_s"] = one("1/s", float64(e.prog.Length)/1e6/wall.Median)
	r.Metrics["units_per_s"] = one("1/s", float64(len(last.Result().Units))/wall.Median)
	e.accuracy(r, last)
	return r, nil
}

// accuracy adds the simulated (exactly repeating) metrics of a report.
func (e *env) accuracy(r *result, rep *sim.Report) {
	r.Metrics["store_mb"] = one("MB", float64(e.storeBytes)/1e6)
	r.Metrics["cpi_err_pct"] = one("%", 100*math.Abs(rep.CPI.Mean-e.refCPI)/e.refCPI)
	r.Metrics["ci_rel_pct"] = one("%", 100*rep.CPI.RelCI)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
