package dist

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
	"repro/sim"
)

// reportDigest is what must repeat exactly whichever way a request runs:
// the estimates' bits, the unit count and the instruction accounting
// (the digest benchmark/workloads.go checks against its golden file).
func reportDigest(rep *sim.Report) string {
	res := rep.Result()
	return fmt.Sprintf("cpi=%016x ci=%016x epi=%016x units=%d measured=%d warming=%d fastfwd=%d",
		math.Float64bits(rep.CPI.Mean), math.Float64bits(rep.CPI.RelCI), math.Float64bits(rep.EPI.Mean),
		len(res.Units), res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
}

// sameEntry requires the store in dir to hold one committed entry, the
// request's, byte-identical to EncodeSet of a plain Capture of its key:
// an entry is a pure function of its key, whichever path committed it.
func sameEntry(t *testing.T, dir string, req *sim.Request) {
	t.Helper()
	prog, cfg := testProg(t), uarch.Config8Way()
	params := sim.ResolvePlan(req, prog).CheckpointParams()
	key := checkpoint.KeyFor(prog, cfg, params)
	set, err := checkpoint.Capture(context.Background(), prog, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := checkpoint.EncodeSet(&want, key, set); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Base(entries[0]) != key.Hash()+".ckpt" {
		t.Fatalf("store holds entries %v, want only %s.ckpt", entries, key.Hash())
	}
	got, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("committed entry (%d bytes) differs from the encoded capture of its key (%d bytes)", len(got), want.Len())
	}
}

// TestCrossPathEquivalence runs one request through every way the
// system can execute it and diffs a single digest: the engine at one
// and four workers, a store hit, an in-memory sweep-cache hit, the
// multi-offset path at the same phase offset, a loopback fleet of two
// single-worker machines, and that fleet with the coordinator killed
// and restarted mid-run. All of them replay through the engine's one
// pool and fold through its one Merger, so every row must reproduce the
// first bit for bit. Every row that commits a store entry must also
// commit the bytes a plain capture of the key encodes to (sameEntry).
func TestCrossPathEquivalence(t *testing.T) {
	const phase = 3
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	open := func(t *testing.T, opts ...sim.Option) *sim.Session {
		t.Helper()
		sess, err := sim.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}
	run := func(t *testing.T, r interface {
		Run(context.Context, *sim.Request) (*sim.Report, error)
	}, req *sim.Request) *sim.Report {
		t.Helper()
		rep, err := r.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// hit primes sess with the sweep, then requires the request to reuse
	// it.
	hit := func(t *testing.T, sess *sim.Session, req *sim.Request) *sim.Report {
		t.Helper()
		run(t, sess, testRequest(sim.Phase(phase)))
		rep := run(t, sess, req)
		if !rep.Result().SweepCached {
			t.Fatal("request swept instead of reusing the primed sweep")
		}
		return rep
	}

	paths := []struct {
		name string
		run  func(t *testing.T, req *sim.Request) *sim.Report
	}{
		{"engine-w1", func(t *testing.T, req *sim.Request) *sim.Report {
			req.Workers, req.NoStore = 1, true
			return run(t, open(t), req)
		}},
		{"engine-w4", func(t *testing.T, req *sim.Request) *sim.Report {
			req.Workers, req.NoStore = 4, true
			return run(t, open(t), req)
		}},
		{"store-hit", func(t *testing.T, req *sim.Request) *sim.Report {
			dir := t.TempDir()
			rep := hit(t, open(t, sim.WithStore(dir), sim.WithWorkers(2)), req)
			sameEntry(t, dir, req)
			return rep
		}},
		{"mem-cache-hit", func(t *testing.T, req *sim.Request) *sim.Report {
			return hit(t, open(t, sim.WithWorkers(2)), req)
		}},
		{"multi-offset", func(t *testing.T, req *sim.Request) *sim.Report {
			// The second offset's boundaries all precede the first's last
			// one, so the shared sweep ends where the dedicated sweep does
			// and even the fast-forward accounting matches.
			req.Offsets = []uint64{phase, phase - 1}
			return run(t, open(t, sim.WithWorkers(2)), req)
		}},
		{"fleet-2x1", func(t *testing.T, req *sim.Request) *sim.Report {
			return run(t, NewClient(newCluster(t, 2, 1, Options{}).coordURL), req)
		}},
		{"fleet-coordinator-restart", func(t *testing.T, req *sim.Request) *sim.Report {
			f := NewFaults()
			dir := t.TempDir()
			rc := newRecoverableCluster(t, Options{StoreDir: dir, Faults: f}, 2)
			f.Arm(FaultKillCoordinator, 5, 1)
			restartErr := make(chan error, 1)
			go func() { restartErr <- rc.awaitKillAndRestart(Options{}) }()
			client := NewClient(rc.url)
			client.RetryBase, client.RetryMax = time.Millisecond, 50*time.Millisecond
			rep := run(t, client, req)
			if err := <-restartErr; err != nil {
				t.Fatalf("restart: %v", err)
			}
			if f.Fired(FaultKillCoordinator) != 1 {
				t.Fatal("the coordinator was never killed mid-run")
			}
			sameEntry(t, dir, req)
			return rep
		}},
	}

	var want string
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			rep := p.run(t, testRequest(sim.Phase(phase)))
			if len(rep.Result().Units) == 0 {
				t.Fatal("measured no units")
			}
			got := reportDigest(rep)
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("report digest diverged from %s:\n got %s\nwant %s", paths[0].name, got, want)
			}
		})
	}
}
