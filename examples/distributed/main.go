// Distributed: the sampling service sharded across a worker fleet —
// a loopback coordinator with three in-process workers runs the same
// request as a local session and merges a bit-identical report.
//
// Three things to watch in the output:
//
//  1. The distributed report matches the local checkpointed engine
//     exactly: same units, same CPI/EPI estimates, at any fleet size.
//     Sharding is free because the merge folds units by stream index —
//     the same deterministic order the single-machine collector uses.
//
//  2. The fleet pays ONE functional sweep: the coordinator runs it
//     before dispatching any shard, and every worker downloads the
//     snapshot set from it (the first run reports sweep cached=false).
//
//  3. A second run of the same request replays straight from the
//     coordinator's sweep cache (sweep cached=true).
//
//     go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"repro/internal/dist"
	"repro/sim"
)

func main() {
	// --- Fleet: loopback coordinator + 3 in-process workers ---------
	coord, err := dist.NewCoordinator(dist.Options{})
	if err != nil {
		log.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	var workers []*dist.Worker
	for i := 0; i < 3; i++ {
		var w *dist.Worker
		var h http.Handler
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		w = dist.NewWorker(dist.WorkerOptions{
			Coordinator: coordSrv.URL,
			Self:        srv.URL,
			Workers:     2,
		})
		h = w.Handler()
		if err := w.Register(context.Background()); err != nil {
			log.Fatal(err)
		}
		workers = append(workers, w)
	}
	fmt.Printf("fleet: coordinator %s + %d workers\n\n", coordSrv.URL, len(workers))

	ctx := context.Background()
	request := func() *sim.Request {
		return sim.NewRequest("gzipx", sim.Length(1_000_000), sim.Units(150))
	}

	// --- 1. Bit-identity against the local engine -------------------
	sess, err := sim.Open(sim.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	local, err := sess.Run(ctx, request())
	if err != nil {
		log.Fatal(err)
	}

	client := dist.NewClient(coordSrv.URL)
	remote, err := client.Run(ctx, request())
	if err != nil {
		log.Fatal(err)
	}

	lres, rres := local.Result(), remote.Result()
	fmt.Printf("local  engine: CPI %v over %d units\n", local.CPI, len(lres.Units))
	fmt.Printf("distributed  : CPI %v over %d units\n", remote.CPI, len(rres.Units))
	fmt.Printf("bit-identical: units=%v estimates=%v\n",
		reflect.DeepEqual(lres.Units, rres.Units), local.CPI == remote.CPI && local.EPI == remote.EPI)

	// --- 2. One sweep, on the coordinator ----------------------------
	fmt.Printf("first run: sweep cached=%v (the coordinator swept once for the fleet)\n\n", rres.SweepCached)

	// --- 3. Cached rerun ---------------------------------------------
	again, err := client.Run(ctx, request())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rerun: CPI %v, sweep cached=%v, wall %v\n",
		again.CPI, again.Result().SweepCached, again.Elapsed.Round(time.Millisecond))
}
