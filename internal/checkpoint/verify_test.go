package checkpoint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestStoreChecksumDetectsBitFlips is the sealed format's guarantee the
// pre-checksum corruption sweep could not give: EVERY single-byte flip
// past the header — including flips inside opaque content (4KiB pages,
// predictor tables, LRU stamps) that still parse structurally — must
// degrade to a store miss, never load.
func TestStoreChecksumDetectsBitFlips(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hash()+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 80; i++ {
		off := 12 + (len(data)-13)*i/80 // past magic+version
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(key)
		if err != nil {
			t.Fatalf("flip at %d: got error %v, want miss", off, err)
		}
		if got != nil {
			t.Fatalf("flip at %d loaded despite the checksum", off)
		}
	}

	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Load(key); err != nil || got == nil {
		t.Fatalf("intact entry failed to load after flip sweep: %v", err)
	}
}

// TestStoreVerify covers the offline scrub: a clean store verifies
// clean, payload corruption in a committed entry or a partial journal
// is reported (with the file kept in report-only mode), a misnamed
// entry is caught by the content-address check, and evict mode removes
// exactly the problem files while the good ones keep loading.
func TestStoreVerify(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)

	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	// A second, good entry that must survive the eviction below.
	p2 := genProg(t, "mcfx", 200_000)
	key2 := checkpoint.KeyFor(p2, cfg, params)
	if err := store.Save(key2, capture(t, p2, cfg, params)); err != nil {
		t.Fatal(err)
	}
	// A partial journal, cut mid-sweep.
	p3 := genProg(t, "gccx", 300_000)
	params3 := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	key3 := checkpoint.KeyFor(p3, cfg, params3)
	journalSweep(t, p3, cfg, params3, store, key3, nil, 5)

	rep, err := store.Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Entries != 2 || rep.Partials != 1 {
		t.Fatalf("clean store: %+v", rep)
	}

	// Corrupt the first entry's payload and truncate the journal to
	// before its first unit (leaving it with nothing to resume from).
	entryPath := filepath.Join(dir, key.Hash()+".ckpt")
	data, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x5a
	if err := os.WriteFile(entryPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	partialPath := filepath.Join(dir, key3.Hash()+".partial")
	pdata, err := os.ReadFile(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partialPath, pdata[:200], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = store.Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 2 || len(rep.Evicted) != 0 {
		t.Fatalf("report-only scrub: %+v", rep)
	}
	if _, err := os.Stat(entryPath); err != nil {
		t.Fatal("report-only scrub must not remove files")
	}

	rep, err = store.Verify(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Evicted) != 2 {
		t.Fatalf("evict scrub: %+v", rep)
	}
	if _, err := os.Stat(entryPath); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not evicted")
	}
	if _, err := os.Stat(partialPath); !os.IsNotExist(err) {
		t.Fatal("corrupt partial not evicted")
	}
	// The untouched entry survives and still loads.
	if got, err := store.Load(key2); err != nil || got == nil {
		t.Fatalf("good entry lost after eviction: %v", err)
	}

	// A file sitting at the wrong content address is a problem even when
	// its bytes are intact.
	if err := os.WriteFile(filepath.Join(dir, "0123456789abcdef0123456789abcdef.ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = store.Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("misnamed entry must be reported")
	}
}
