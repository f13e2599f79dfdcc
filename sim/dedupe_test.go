package sim

import (
	"context"
	"testing"
)

// TestDedupeKeyIsStoreKey pins the session's sweep singleflight to the
// engine's store key under a session knob that reaches the key: on a
// store session opened with WithSweepParallelism(2) (warmed parallel
// sweeps key separately), the hash the in-flight leader is registered
// under must be the hash of the one entry the run commits — otherwise a
// waiter wakes, finds "its" key absent from the store, and re-contends
// for leadership instead of proceeding on the hit.
func TestDedupeKeyIsStoreKey(t *testing.T) {
	sess, err := Open(WithStore(t.TempDir()), WithSweepParallelism(2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// The leader's flight is registered while the engine runs; sample it
	// from inside the run, on the first captured unit.
	var deduped []string
	observe := func(ev Progress) {
		if ev.Kind != EventUnitCaptured || deduped != nil {
			return
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		deduped = []string{}
		for hash := range sess.flights {
			deduped = append(deduped, hash)
		}
	}
	if _, err := sess.Run(context.Background(), NewRequest("gzipx",
		Length(600_000), Units(40), OnProgress(observe))); err != nil {
		t.Fatal(err)
	}
	if len(deduped) != 1 {
		t.Fatalf("run was in flight under %d keys, want 1: %v", len(deduped), deduped)
	}

	entries, err := sess.store.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store lists %d entries, want 1", len(entries))
	}
	if entries[0].Hash != deduped[0] {
		t.Fatalf("session deduplicated on %s but the engine stored the sweep as %s (%s)",
			deduped[0], entries[0].Hash, entries[0].Key)
	}
}
