package checkpoint_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// TestEntryIsFunctionOfKey: a store entry's bytes depend on its key
// alone. A second Capture, the entries committed by streamed runs into
// fresh stores at one and two workers, and the entry committed by a
// sweep cancelled after its journal reached disk and then resumed are
// each byte-identical to EncodeSet of one Capture of the key.
func TestEntryIsFunctionOfKey(t *testing.T) {
	prog := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	key := checkpoint.KeyFor(prog, cfg, params)
	encode := func() []byte {
		t.Helper()
		set, err := checkpoint.Capture(context.Background(), prog, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := checkpoint.EncodeSet(&buf, key, set); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode()
	same := func(what string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes differ from the capture's %d (first at %d)", what, len(got), len(want), firstDiff(got, want))
		}
	}
	same("a second capture", encode())

	for _, workers := range []int{1, 2} {
		store := openStore(t)
		if _, err := engine.Run(context.Background(), prog, cfg, params, engine.Options{Workers: workers, Store: store}); err != nil {
			t.Fatal(err)
		}
		same("a streamed run's entry", committed(t, store, key))
	}

	// Cancel the sweep once its journal is on disk, then rerun the key: the
	// rerun resumes from the journal and commits the entry.
	store := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial := filepath.Join(store.Dir(), key.Hash()+".partial")
	opt := engine.Options{Workers: 2, Store: store, OnCaptured: func(int) {
		if _, err := os.Stat(partial); err == nil {
			cancel()
		}
	}}
	if _, err := engine.Run(ctx, prog, cfg, params, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v, want context.Canceled", err)
	}
	opt.OnCaptured = nil
	res, err := engine.Run(context.Background(), prog, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.SweepResumedInsts == 0 {
		t.Fatal("the rerun did not resume from the journal")
	}
	same("a resumed sweep's entry", committed(t, store, key))
}

// openStore opens a fresh store in a test directory.
func openStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// committed returns the bytes of the entry committed under key.
func committed(t *testing.T, store *checkpoint.Store, key checkpoint.Key) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(store.Dir(), key.Hash()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff is the offset of the first byte two streams differ in.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
