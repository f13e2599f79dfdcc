package sim

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// TestDedupeKeyIsStoreKey pins the session's sweep singleflight to the
// engine's store key: on a default store session, the hash the in-flight
// leader is registered under must be the hash of the one entry the run
// commits — otherwise a waiter wakes, finds "its" key absent from the
// store, and re-contends for leadership instead of proceeding on the hit.
// No session knob reaches the key any more (the sweep is serial, and
// Keyframe changes only the encoding), so
// both sides derive it through engine.Options.SweepKey from the plan
// alone; the test keeps them from drifting apart.
func TestDedupeKeyIsStoreKey(t *testing.T) {
	sess, err := Open(WithStore(t.TempDir()), WithWorkers(1))
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

	entries, err := filepath.Glob(filepath.Join(sess.store.Dir(), "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries, want 1: %v", len(entries), entries)
	}
	if hash := strings.TrimSuffix(filepath.Base(entries[0]), ".ckpt"); hash != deduped[0] {
		t.Fatalf("session deduplicated on %s but the engine stored the sweep as %s",
			deduped[0], hash)
	}
}

// TestExperimentContextCarriesSessionKnobs checks that experiment
// requests run their sweeps under the session's execution knobs, as
// sampling requests do: the session's keyframe interval, the request's
// workers and the session's store.
func TestExperimentContextCarriesSessionKnobs(t *testing.T) {
	sess, err := Open(WithStore(t.TempDir()), WithKeyframe(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ec, err := sess.expContext("tiny", &Request{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := ec.Engine
	if opt == nil {
		t.Fatal("engine-mode experiment context has no engine options")
	}
	if opt.Keyframe != 4 || opt.Workers != 3 || opt.Store != sess.store || opt.Cache != nil {
		t.Fatalf("experiment options: keyframe=%d workers=%d store=%v cache=%v; want 4, 3, the session store, nil",
			opt.Keyframe, opt.Workers, opt.Store != nil, opt.Cache != nil)
	}
}
