// Command simd is the distributed sampling service: the same SMARTS
// runs as cmd/smartsim, sharded across a worker fleet with a
// bit-identical merged report. One binary serves all three roles:
//
//	simd coordinator -listen :9090 [-workers URL,URL] [-ckpt-dir DIR]
//	simd worker -listen :9091 -coordinator http://HOST:9090 [-parallel N]
//	simd run -coordinator http://HOST:9090 -bench gccx -n 400
//	simd fsck -ckpt-dir DIR [-evict]
//
// The coordinator splits each run's sampling units into contiguous
// shard ranges and merges the streamed results in stream order, so the
// printed estimates match a single-machine run of the checkpointed
// engine (smartsim -parallel) exactly, at any fleet size. Workers
// self-register on startup. The coordinator runs the one functional-
// warming sweep per (workload, machine, plan) key itself, before it
// dispatches shards, and serves it to the workers from its sweep cache;
// with -ckpt-dir the sweep is journaled into the on-disk checkpoint
// store as it runs, so a restarted coordinator resumes it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/sim"
	"repro/sim/simflag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simd: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "coordinator":
		coordinatorMain(os.Args[2:])
	case "worker":
		workerMain(os.Args[2:])
	case "run":
		runMain(os.Args[2:])
	case "fsck":
		fsckMain(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "simd: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  simd coordinator -listen ADDR [-workers URL,...] [-ckpt-dir DIR] [-ckpt-max-bytes N]
                   [-mem-cache-bytes N] [-max-active N] [-max-queue N] [-shards-per-worker N]
  simd worker      -listen ADDR -coordinator URL [-advertise URL] [-parallel N] [-mem-cache-bytes N]
                   [-heartbeat D]
  simd run         -coordinator URL [workload/machine/plan flags] [-fallback-local] [-v]
  simd fsck        -ckpt-dir DIR [-evict]
`)
}

func coordinatorMain(args []string) {
	fs := flag.NewFlagSet("simd coordinator", flag.ExitOnError)
	var (
		listen    = fs.String("listen", ":9090", "address to serve the coordinator API on")
		workers   = fs.String("workers", "", "comma-separated worker base URLs to pre-register (workers may also self-register)")
		ckptDir   = fs.String("ckpt-dir", "", "on-disk checkpoint store directory shared across runs (empty = in-memory only)")
		ckptMax   = fs.Int64("ckpt-max-bytes", 0, "LRU size cap for the checkpoint store in bytes (0 = unbounded)")
		memMax    = fs.Int64("mem-cache-bytes", 0, "LRU size cap for the in-memory sweep cache in bytes (0 = unbounded)")
		active    = fs.Int("max-active", 0, "concurrently running runs admitted (0 = default)")
		queue     = fs.Int("max-queue", 0, "runs waiting for a slot before ErrBusy (0 = default, -1 = no queue)")
		perWorker = fs.Int("shards-per-worker", 0, "shard ranges per live worker, for work stealing (0 = default)")
	)
	fs.Parse(args)

	coord, err := dist.NewCoordinator(dist.Options{
		StoreDir:        *ckptDir,
		StoreMaxBytes:   *ckptMax,
		MemCacheBytes:   *memMax,
		MaxActive:       *active,
		MaxQueue:        *queue,
		ShardsPerWorker: *perWorker,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, url := range strings.Split(*workers, ",") {
		if url = strings.TrimSpace(url); url != "" {
			coord.AddWorker(url)
		}
	}
	log.Printf("coordinator listening on %s", *listen)
	log.Fatal(http.ListenAndServe(*listen, coord.Handler()))
}

func workerMain(args []string) {
	fs := flag.NewFlagSet("simd worker", flag.ExitOnError)
	var (
		listen      = fs.String("listen", ":9091", "address to serve the worker API on")
		coordinator = fs.String("coordinator", "", "coordinator base URL (required)")
		advertise   = fs.String("advertise", "", "base URL the coordinator reaches this worker at (default: derived from -listen on loopback)")
		parallel    = fs.Int("parallel", -1, "replay workers per shard (-1 = all cores)")
		memMax      = fs.Int64("mem-cache-bytes", 0, "LRU size cap for the local sweep cache in bytes (0 = unbounded)")
		dflags      = simflag.RegisterDistWorker(fs)
	)
	fs.Parse(args)
	if *coordinator == "" {
		log.Fatal("worker requires -coordinator URL")
	}
	self := *advertise
	if self == "" {
		if strings.HasPrefix(*listen, ":") {
			self = "http://127.0.0.1" + *listen
		} else {
			self = "http://" + *listen
		}
	}

	w := dist.NewWorker(dist.WorkerOptions{
		Coordinator:   *coordinator,
		Self:          self,
		Workers:       *parallel,
		MemCacheBytes: *memMax,
		Heartbeat:     *dflags.Heartbeat,
		Logf:          log.Printf,
	})
	// The coordinator may still be coming up; keep announcing until it
	// answers (Register itself retries transient failures with backoff),
	// in the background so the worker serves shards meanwhile. Once
	// registered, the same goroutine drives the liveness heartbeat.
	go func() {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := w.Register(ctx)
			cancel()
			if err == nil {
				log.Printf("registered with %s as %s", *coordinator, self)
				w.Heartbeat(context.Background())
				return
			}
			log.Printf("register with %s failed (%v); retrying", *coordinator, err)
			time.Sleep(time.Second)
		}
	}()
	log.Printf("worker listening on %s", *listen)
	log.Fatal(http.ListenAndServe(*listen, w.Handler()))
}

func runMain(args []string) {
	fs := flag.NewFlagSet("simd run", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (required)")
		verbose     = fs.Bool("v", false, "stream shard and sweep progress to stderr")
		fallback    = fs.Bool("fallback-local", false, "degrade to an in-process run (bit-identical, slower) when the coordinator stays unreachable after retries")
		workload    = simflag.RegisterWorkload(fs)
		machine     = simflag.RegisterMachine(fs)
		plan        = simflag.RegisterPlan(fs)
	)
	fs.Parse(args)

	if workload.ListAndExit() {
		return
	}
	if *coordinator == "" {
		log.Fatal("run requires -coordinator URL")
	}
	cfg, err := machine.Config()
	if err != nil {
		log.Fatal(err)
	}
	req := sim.NewRequest(*workload.Bench, sim.Machine(cfg), sim.Length(*workload.Length))
	if err := plan.Apply(req); err != nil {
		log.Fatal(err)
	}
	if *verbose {
		req.Progress = func(ev sim.Progress) {
			switch ev.Kind {
			case sim.EventRunStart:
				log.Printf("run start: %d units over a population of %d", ev.Total, ev.Population)
			case sim.EventShardStart:
				log.Printf("shard %d/%d: %d units", ev.Shard+1, ev.Shards, ev.Total)
			case sim.EventUnitReplayed:
				if ev.ETA > 0 {
					log.Printf("merged %d/%d units (ETA %v)", ev.Replayed, ev.Total, ev.ETA.Round(time.Second))
				}
			case sim.EventShardDone:
				log.Printf("shard %d/%d done (%d units)", ev.Shard+1, ev.Shards, ev.Replayed)
			case sim.EventRetry:
				log.Printf("retrying after transient failure (attempt %d): %s", ev.Attempt, ev.Note)
			case sim.EventFallback:
				log.Printf("coordinator unreachable; falling back to a local run: %s", ev.Note)
			case sim.EventReattach:
				log.Printf("run stream broke; re-attaching (attempt %d): %s", ev.Attempt, ev.Note)
			case sim.EventQuarantine:
				log.Printf("worker quarantined after integrity failure: %s", ev.Note)
			}
		}
	}

	client := dist.NewClient(*coordinator)
	if *fallback {
		local, err := sim.Open()
		if err != nil {
			log.Fatal(err)
		}
		defer local.Close()
		client.Fallback = local
	}
	rep, err := client.Run(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Result()
	fmt.Printf("plan: U=%d W=%d k=%d j=%d warming=%v\n",
		res.Plan.U, res.Plan.W, res.Plan.K, res.Plan.J, res.Plan.Warming)
	// The estimate lines match cmd/smartsim's report byte for byte — CI
	// diffs them against a single-machine run of the same plan.
	fmt.Printf("CPI estimate: %v\n", res.CPIEstimate(sim.Alpha997))
	fmt.Printf("EPI estimate: %v nJ\n", res.EPIEstimate(sim.Alpha997))
	fmt.Printf("instructions: %d measured, %d detailed warming, %d fast-forwarded\n",
		res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
	fmt.Printf("distributed time: %v wall\n", rep.Elapsed.Round(time.Millisecond))
}

// fsckMain scrubs a checkpoint store offline: every committed entry
// and partial journal must decode end to end (every record's CRC seal
// included). Problems exit 1 unless -evict removed them all.
func fsckMain(args []string) {
	fs := flag.NewFlagSet("simd fsck", flag.ExitOnError)
	var (
		ckptDir = fs.String("ckpt-dir", "", "checkpoint store directory to scrub (required)")
		evict   = fs.Bool("evict", false, "remove files that fail validation (the store reloads them on demand)")
	)
	fs.Parse(args)
	if *ckptDir == "" {
		log.Fatal("fsck requires -ckpt-dir DIR")
	}
	store, err := checkpoint.OpenStore(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := store.Verify(*evict)
	if rep != nil {
		for _, p := range rep.Problems {
			fmt.Printf("BAD  %s: %v\n", p.File, p.Err)
		}
		for _, name := range rep.Evicted {
			fmt.Printf("EVICTED %s\n", name)
		}
		fmt.Printf("scanned %d entr%s, %d partial journal(s): %d problem(s)\n",
			rep.Entries, plural(rep.Entries, "y", "ies"), rep.Partials, len(rep.Problems))
	}
	if err != nil {
		log.Fatal(err)
	}
	if !rep.Clean() && len(rep.Evicted) < len(rep.Problems) {
		os.Exit(1)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
