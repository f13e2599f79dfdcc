// Parallel: run the same SMARTS sampling plan with one worker and with
// one worker per core, and compare estimates and wall-clock time.
//
// The engine runs one functional-warming sweep that snapshots each
// selected unit's launch state (registers, a copy-on-write memory
// image, cache/TLB/predictor tables), then replays the units across a
// worker pool. Because each unit is a pure function of its snapshot,
// the estimate is bit-identical for every worker count.
//
//	go run ./examples/parallel
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/sim"
)

func main() {
	sess, err := sim.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	const bench = "gccx"
	const length = 4_000_000
	prog, err := sess.Workload(bench, length)
	if err != nil {
		log.Fatal(err)
	}
	base := []sim.RequestOption{sim.Length(length), sim.Units(500)}
	fmt.Printf("workload %s: %d instructions\n", prog.Name, prog.Length)

	// Single-worker engine run: the baseline the parallel run must
	// reproduce byte-for-byte.
	start := time.Now()
	serial, err := sess.Run(ctx, sim.NewRequest(bench, append(base, sim.Workers(1))...))
	if err != nil {
		log.Fatal(err)
	}
	serialTime := time.Since(start)

	// Parallel run across all cores.
	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	parallel, err := sess.Run(ctx, sim.NewRequest(bench, append(base, sim.Workers(workers))...))
	if err != nil {
		log.Fatal(err)
	}
	parallelTime := time.Since(start)

	fmt.Printf("serial   (1 worker):   CPI %v   in %v\n", serial.CPI, serialTime.Round(time.Millisecond))
	fmt.Printf("parallel (%d workers): CPI %v   in %v\n", workers, parallel.CPI, parallelTime.Round(time.Millisecond))
	fmt.Printf("identical estimates: %v\n", serial.CPI == parallel.CPI)
	if parallelTime > 0 {
		fmt.Printf("speedup: %.2fx on the end-to-end run\n",
			float64(serialTime)/float64(parallelTime))
	}
}
