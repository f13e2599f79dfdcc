package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// fuzzWire captures a small real sweep once and returns its key, its
// EncodeSet bytes, the journal a store writer leaves when it closes
// after one frame over every unit, and the entry a journaled store
// writer commits (the set's stream with a frame after every third
// unit) — the valid corpus the fuzzers mutate. Readers must never
// panic: any corruption degrades to an error (full sets) or to the
// longest valid-frame prefix (partials).
func fuzzWire(f *testing.F) (checkpoint.Key, []byte, []byte, []byte) {
	f.Helper()
	p := genProg(f, "gccx", 120_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, FunctionalWarm: true}
	set := capture(f, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)

	var wire bytes.Buffer
	if err := checkpoint.EncodeSet(&wire, key, set); err != nil {
		f.Fatal(err)
	}

	store, err := checkpoint.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	w, err := store.Writer(key, set.PopulationUnits)
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range set.Units {
		if err := w.Add(u); err != nil {
			f.Fatal(err)
		}
	}
	last := set.Units[len(set.Units)-1]
	if err := w.Checkpoint(checkpoint.ResumeFrame{Captured: len(set.Units), SweepInsts: last.Arch.Count, SweepTime: set.SweepTime}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	partial, err := os.ReadFile(filepath.Join(store.Dir(), key.Hash()+".partial"))
	if err != nil {
		f.Fatal(err)
	}

	w, err = store.Writer(key, set.PopulationUnits)
	if err != nil {
		f.Fatal(err)
	}
	for i, u := range set.Units {
		if err := w.Add(u); err != nil {
			f.Fatal(err)
		}
		if (i+1)%3 == 0 {
			// Only the count is checked against the stream; the scalars are
			// opaque to the decoders.
			if err := w.Checkpoint(checkpoint.ResumeFrame{Captured: i + 1, SweepInsts: u.Arch.Count}); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := w.Commit(set.SweepInsts, set.SweepTime); err != nil {
		f.Fatal(err)
	}
	journaled, err := os.ReadFile(filepath.Join(store.Dir(), key.Hash()+".ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := checkpoint.DecodeSet(bytes.NewReader(journaled), key); err != nil {
		f.Fatalf("committed journal does not decode: %v", err)
	}
	return key, wire.Bytes(), partial, journaled
}

// FuzzDecodeSet feeds mutated set streams to DecodeSet: it must never
// panic, and must return either an error or a structurally sound Set.
func FuzzDecodeSet(f *testing.F) {
	key, wire, partial, journaled := fuzzWire(f)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:16])
	f.Add(partial) // a partial stream is not a valid full set
	f.Add([]byte{})
	f.Add(journaled) // a committed entry that was a journal: frames included
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := checkpoint.DecodeSet(bytes.NewReader(data), key)
		if err != nil {
			return
		}
		if set == nil {
			t.Fatal("DecodeSet returned nil set without error")
		}
		for i, u := range set.Units {
			if u == nil {
				t.Fatalf("decoded unit %d is nil", i)
			}
		}
	})
}

// FuzzDecodePartial installs mutated partial-sweep journals in a store
// and loads them with Store.LoadPartial, the one partial reader: it
// must never panic, and corruption must degrade to a miss or to a
// consistent valid-frame prefix.
func FuzzDecodePartial(f *testing.F) {
	key, wire, partial, journaled := fuzzWire(f)
	f.Add(partial)
	f.Add(partial[:len(partial)/2])
	f.Add(partial[:16])
	f.Add(wire) // a full set stream has no frame to resume from
	f.Add([]byte{})
	f.Add(journaled) // resumes from its last frame
	store, err := checkpoint.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(store.Dir(), key.Hash()+".partial")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := store.LoadPartial(key)
		if err != nil {
			t.Fatalf("LoadPartial of a readable journal failed: %v", err)
		}
		if rs == nil {
			return
		}
		if len(rs.Units) == 0 {
			t.Fatal("LoadPartial returned a frameless state")
		}
		for i, u := range rs.Units {
			if u == nil {
				t.Fatalf("decoded unit %d is nil", i)
			}
		}
	})
}
