package program_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/program"
	"repro/sim"
)

// TestDigestIsSaveHash: for every suite program, Digest is the SHA-256
// of the Save serialization, and concurrent first calls of every
// memoized derivation agree (run it under -race).
func TestDigestIsSaveHash(t *testing.T) {
	for _, spec := range program.Suite() {
		p, err := program.Generate(spec, 60_000)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", spec.Name, err)
		}
		want := sha256.Sum256(buf.Bytes())

		const n = 8
		var wg sync.WaitGroup
		digests := make([][sha256.Size]byte, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				digests[i] = p.Digest()
				if p.Image() == nil || len(p.Predecoded()) != len(p.Code) {
					t.Errorf("%s: derivation missing", spec.Name)
				}
			}()
		}
		wg.Wait()
		for i, d := range digests {
			if d != want {
				t.Fatalf("%s: Digest #%d = %x, want SHA-256 of Save %x", spec.Name, i, d, want)
			}
		}
		if p.Image().PageCount() == 0 {
			t.Errorf("%s: empty initial image", spec.Name)
		}
	}
}

// TestStoreHitsHashOnce: two store-hit runs of one program on a session
// hash the program once. Each run derives the store key twice (the
// session's sweep singleflight, then the engine), so without the memo
// it would hash four times.
func TestStoreHitsHashOnce(t *testing.T) {
	dir := t.TempDir()
	req := func() *sim.Request { return sim.NewRequest("gzipx", sim.Length(600_000), sim.Units(40)) }
	prime, err := sim.Open(sim.WithStore(dir), sim.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prime.Run(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	prime.Close()

	// The priming run's program is in the process-wide cache, already
	// hashed: drop it, so the session below generates its own.
	program.ResetShared()
	var hashes atomic.Int64
	defer program.SetDigestHook(func() { hashes.Add(1) })()
	sess, err := sim.Open(sim.WithStore(dir), sim.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 2; i++ {
		if _, err := sess.Run(context.Background(), req()); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses, _ := sess.StoreStats(); hits != 2 || misses != 0 {
		t.Fatalf("store hits/misses = %d/%d, want 2/0", hits, misses)
	}
	if n := hashes.Load(); n != 1 {
		t.Fatalf("two store-hit runs hashed the program %d times, want 1", n)
	}
}
