package checkpoint_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestStoreRoundTrip saves a captured set and reloads it, requiring the
// reloaded units to be indistinguishable from the originals (geometry,
// arch state, memory contents, warm state).
func TestStoreRoundTrip(t *testing.T) {
	p := genProg(t, "gccx", 300_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 40, J: 0, FunctionalWarm: true}
	set := capture(t, p, cfg, params)

	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil {
		t.Fatal("saved set not found")
	}
	if len(loaded.Units) != len(set.Units) {
		t.Fatalf("loaded %d units, saved %d", len(loaded.Units), len(set.Units))
	}
	if loaded.PopulationUnits != set.PopulationUnits || loaded.SweepInsts != set.SweepInsts {
		t.Fatalf("sweep accounting lost: %+v vs %+v", loaded.PopulationUnits, set.PopulationUnits)
	}
	for i := range set.Units {
		unitsEqual(t, "roundtrip", loaded.Units[i], set.Units[i])
	}
	if hits, misses := store.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("stats: %d hits %d misses, want 1/0", hits, misses)
	}
}

// TestStoreKeyDiscrimination verifies that every key ingredient
// invalidates: a different plan geometry, warming mode, or hierarchy
// shape misses, while a machine config differing only in timing/width
// hits the same entry.
func TestStoreKeyDiscrimination(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 20, J: 0, FunctionalWarm: true}
	key := checkpoint.KeyFor(p, cfg, params)

	// Same plan on a timing-only variant of the machine: same key.
	timingOnly := cfg
	timingOnly.Lat.Mem = 300
	timingOnly.FetchWidth = 4
	timingOnly.MispredictPenalty = 20
	if got := checkpoint.KeyFor(p, timingOnly, params); got.Hash() != key.Hash() {
		t.Fatal("timing-only config change must not invalidate checkpoints")
	}

	// Different hierarchy geometry: different key.
	if got := checkpoint.KeyFor(p, uarch.Config16Way(), params); got.Hash() == key.Hash() {
		t.Fatal("hierarchy geometry change must invalidate checkpoints")
	}

	// Plan variations: different keys.
	for _, vary := range []func(*checkpoint.Params){
		func(q *checkpoint.Params) { q.U = 500 },
		func(q *checkpoint.Params) { q.W = 2000 },
		func(q *checkpoint.Params) { q.K = 10 },
		func(q *checkpoint.Params) { q.J = 1 },
		func(q *checkpoint.Params) { q.Offsets = []uint64{0, 1} },
		func(q *checkpoint.Params) { q.FunctionalWarm = false },
		func(q *checkpoint.Params) { q.MaxUnits = 5 },
	} {
		q := params
		vary(&q)
		if checkpoint.KeyFor(p, cfg, q).Hash() == key.Hash() {
			t.Fatalf("plan variation %+v did not change the key", q)
		}
	}

	// Cold captures carry no warm signature: any two configs share.
	cold := params
	cold.FunctionalWarm = false
	a := checkpoint.KeyFor(p, uarch.Config8Way(), cold)
	b := checkpoint.KeyFor(p, uarch.Config16Way(), cold)
	if a.Hash() != b.Hash() {
		t.Fatal("cold captures must reuse across all machine configs")
	}

	// Different workload content: different key.
	p2 := genProg(t, "gzipx", 200_000)
	if checkpoint.KeyFor(p2, cfg, params).Hash() == key.Hash() {
		t.Fatal("program content change must invalidate checkpoints")
	}
}

// TestStoreVersionAndCorruption verifies unusable files degrade to
// misses, never errors.
func TestStoreVersionAndCorruption(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, K: 20, J: 0}
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
	entries, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 store file, got %v (%v)", entries, err)
	}

	// Truncate the file: load must report a miss.
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(key)
	if err != nil {
		t.Fatalf("corrupt entry must be a miss, got error %v", err)
	}
	if got != nil {
		t.Fatal("corrupt entry must be a miss, got a set")
	}

	// Bad magic: also a miss.
	bad := append([]byte("XXXXXXXX"), data[8:]...)
	if err := os.WriteFile(entries[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Load(key); err != nil || got != nil {
		t.Fatalf("bad-magic entry must be a miss (got set=%v err=%v)", got != nil, err)
	}
}

// TestStoreOtherVersionIsMiss pins the one-format rule that replaced the
// v1-v3 read paths (and the compat tests that wrote such files by
// hand): a committed entry or a partial journal stamped with any format
// version but the writer's — the unsealed versions and the whole-entry
// sealed version 4 of earlier releases, or a future one — is a miss,
// never an error and never a decode attempt; Verify (simd fsck) reports
// both files; and the next commit of each key overwrites the stale file
// with a loadable one.
func TestStoreOtherVersionIsMiss(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	// The journal belongs to a second key, cut mid-sweep.
	jp := genProg(t, "gccx", 300_000)
	jparams := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	jkey := checkpoint.KeyFor(jp, cfg, jparams)

	// stamp rewrites the little-endian uint32 version after the magic.
	stamp := func(path string, v uint32) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(data[8:], v)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, version := range []uint32{1, 2, 3, 4, 6} {
		dir := t.TempDir()
		store, err := checkpoint.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(key, set); err != nil {
			t.Fatal(err)
		}
		journalSweep(t, jp, cfg, jparams, store, jkey, nil, 5)
		if rs, err := store.LoadPartial(jkey); err != nil || rs == nil {
			t.Fatalf("fresh journal does not resume (state=%v err=%v)", rs != nil, err)
		}
		stamp(filepath.Join(dir, key.Hash()+".ckpt"), version)
		stamp(filepath.Join(dir, jkey.Hash()+".partial"), version)

		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("v%d entry must be a miss (set=%v err=%v)", version, got != nil, err)
		}
		if rs, err := store.LoadPartial(jkey); err != nil || rs != nil {
			t.Fatalf("v%d journal must be a miss (state=%v err=%v)", version, rs != nil, err)
		}
		rep, err := store.Verify(false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries != 1 || rep.Partials != 1 || len(rep.Problems) != 2 {
			t.Fatalf("v%d: scrub must report the entry and the journal: %+v", version, rep)
		}

		// The next commit of each key overwrites the stale file.
		if err := store.Save(key, set); err != nil {
			t.Fatal(err)
		}
		journalSweep(t, jp, cfg, jparams, store, jkey, nil, 5)
		if got, err := store.Load(key); err != nil || got == nil || len(got.Units) != len(set.Units) {
			t.Fatalf("v%d: recommitted entry does not load (err=%v)", version, err)
		}
		if rs, err := store.LoadPartial(jkey); err != nil || rs == nil {
			t.Fatalf("v%d: rewritten journal does not resume (err=%v)", version, err)
		}
		if rep, err := store.Verify(false); err != nil || !rep.Clean() {
			t.Fatalf("v%d: store not clean after recommit: %+v (%v)", version, rep, err)
		}
	}
}

// TestStoreCorruptDeltaChains sweeps truncation points and single-byte
// flips across a delta-encoded entry — including points inside delta
// records and the End record. Truncations and splices must degrade
// to a store miss (no error, no panic, never a silently short set);
// byte flips must either miss or load into a set whose every unit
// still materializes without panicking (content flips are undetectable
// without checksums, but structural corruption must never escape the
// decoder).
func TestStoreCorruptDeltaChains(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	// Small keyframe interval so the file interleaves keyframes and
	// delta chains; K=8 gives ~50 units.
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)
	if len(set.Units) < 10 {
		t.Fatalf("want >= 10 units, got %d", len(set.Units))
	}

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

	// Truncations at 40 points through the file (mid-chain truncation
	// lands inside delta records for most of them).
	for i := 1; i < 40; i++ {
		cut := len(data) * i / 40
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(key)
		if err != nil {
			t.Fatalf("truncation at %d bytes: got error %v, want miss", cut, err)
		}
		if got != nil {
			t.Fatalf("truncation at %d bytes: got a set, want miss", cut)
		}
	}

	// Deleting a span from the middle (splicing records) must miss too —
	// the record after the splice fails its seal.
	spliced := append(append([]byte(nil), data[:len(data)/3]...), data[len(data)/3+1024:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Load(key); err != nil || got != nil {
		t.Fatalf("spliced entry: (set=%v err=%v), want miss", got != nil, err)
	}

	// Byte flips at 60 points through the file, including inside intact
	// delta records. A flip in structural fields (lengths, block
	// indices, RAS top) must be rejected at load; a flip in content
	// bytes (tags, counters, page data) is undetectable without
	// checksums and may load — but whatever Load returns, materializing
	// every unit must never panic or index out of range.
	for i := 0; i < 60; i++ {
		off := 12 + (len(data)-13)*i/60 // past magic+version: header flips are covered above
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(key)
		if err != nil {
			t.Fatalf("flip at %d: got error %v, want miss or load", off, err)
		}
		if got == nil {
			continue
		}
		for u := range got.Units {
			if _, err := got.Materialize(u); err != nil {
				t.Fatalf("flip at %d: loaded set failed to materialize unit %d: %v", off, u, err)
			}
		}
	}

	// Restore the intact file: it must load again (the sweep above must
	// not have poisoned anything).
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil || loaded == nil {
		t.Fatalf("intact entry failed to load after corruption sweep: %v", err)
	}
	for i := range set.Units {
		unitsEqual(t, "post-sweep", loaded.Units[i], set.Units[i])
	}
}

// TestStreamStopsAtImplausibleUnit pins the check Stream makes before
// it hands a unit out ahead of the End record: the unit's stream
// positions must fit the plan the entry is keyed by. A unit whose start
// is wrong — a replay from it could run the rest of the program in
// detail — is never handed to the consumer even when its record is
// sealed, as one from a writer at fault would be; the read stops there
// and misses, and Load rejects the entry the same way.
func TestStreamStopsAtImplausibleUnit(t *testing.T) {
	p := genProg(t, "gccx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)
	const bad = 7
	if len(set.Units) <= bad {
		t.Fatalf("want more than %d units, got %d", bad, len(set.Units))
	}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	u := *set.Units[bad]
	u.Start += 1 << 40
	planted := *set
	planted.Units = slices.Clone(set.Units)
	planted.Units[bad] = &u
	if err := store.Save(key, &planted); err != nil {
		t.Fatal(err)
	}

	handed := 0
	sum, err := store.Stream(context.Background(), key, readAll(func(*checkpoint.Unit, *checkpoint.Launch) {
		handed++
	}))
	if err != nil || sum != nil {
		t.Fatalf("Stream of a corrupt entry: (%v, %v), want a miss", sum, err)
	}
	if handed != bad {
		t.Fatalf("Stream handed out %d units, want the %d before the corrupt one", handed, bad)
	}
	if got, err := store.Load(key); err != nil || got != nil {
		t.Fatalf("Load of a corrupt entry: (set=%v, %v), want a miss", got != nil, err)
	}
}

// TestStoreEvictsLeastRecentlyUsed pins the store's size cap, whose
// recency is each entry file's mtime: a Load hit makes an entry the most
// recent; a commit evicts the oldest entries first, equal mtimes by
// name, until the store fits; the entry just committed survives even
// when it alone exceeds the cap; files that are not committed entries
// are neither counted nor removed; and a second handle on the directory
// (a second process) evicts what the first committed. Mtimes are set
// explicitly, so the test never sleeps.
func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, K: 50}
	set := capture(t, p, cfg, params)
	dir := t.TempDir()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// One set under six keys whose workload names have equal length, so
	// every entry has the same size.
	keys := make([]checkpoint.Key, 6)
	for i := range keys {
		keys[i] = checkpoint.KeyFor(p, cfg, params)
		keys[i].Workload = fmt.Sprintf("lru-%d", i)
	}
	path := func(i int) string { return filepath.Join(dir, keys[i].Hash()+".ckpt") }
	at := func(sec int) time.Time { return time.Date(2020, 1, 1, 0, 0, sec, 0, time.UTC) }
	touch := func(i int, when time.Time) {
		t.Helper()
		if err := os.Chtimes(path(i), when, when); err != nil {
			t.Fatal(err)
		}
	}
	save := func(s *checkpoint.Store, i int) {
		t.Helper()
		if err := s.Save(keys[i], set); err != nil {
			t.Fatal(err)
		}
	}
	// present checks which keys hold an entry; Contains, unlike Load,
	// leaves recency alone.
	present := func(step string, want ...bool) {
		t.Helper()
		for i, w := range want {
			if got := store.Contains(keys[i]); got != w {
				t.Fatalf("%s: entry %d present=%v, want %v", step, i, got, w)
			}
		}
	}

	for i := range 3 {
		save(store, i)
	}
	st, err := os.Stat(path(0))
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	for i := 1; i < 3; i++ {
		if st, err := os.Stat(path(i)); err != nil || st.Size() != size {
			t.Fatalf("entry %d: %v, want %d bytes like entry 0", i, err, size)
		}
	}

	// Files that are not committed entries, each larger than any cap
	// below and older than every entry: counting or removing one shows.
	strays := []string{"index.json", "0123456789abcdef0123456789abcdef.partial", "0123456789abcdef0123456789abcdef.tmp-42"}
	stray := make([]byte, 4*size)
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), stray, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(filepath.Join(dir, name), at(0), at(0)); err != nil {
			t.Fatal(err)
		}
	}

	// A hit makes the oldest entry the most recent.
	touch(0, at(1))
	touch(1, at(2))
	touch(2, at(2))
	if got, err := store.Load(keys[0]); err != nil || got == nil {
		t.Fatalf("entry 0 is a miss (err %v)", err)
	}
	if st, err := os.Stat(path(0)); err != nil {
		t.Fatal(err)
	} else if !st.ModTime().After(at(2)) {
		t.Fatalf("hit left entry 0 at mtime %v, want after %v", st.ModTime(), at(2))
	}

	// A cap of three entries and a fourth commit evict one: of entries 1
	// and 2, tied at the oldest mtime, the one whose name sorts first.
	store.MaxBytes = 3*size + size/2
	save(store, 3)
	first, second := 1, 2
	if keys[2].Hash() < keys[1].Hash() {
		first, second = 2, 1
	}
	want := []bool{true, true, true, true, false, false}
	want[first] = false
	present("cap of three", want...)

	// A second handle evicts, oldest first, entries the first committed.
	touch(second, at(3))
	touch(0, at(4))
	touch(3, at(5))
	other, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other.MaxBytes = 2*size + size/2
	save(other, 4)
	present("second handle", false, false, false, true, true, false)

	// An entry larger than the cap evicts every other entry and survives.
	store.MaxBytes = size / 2
	save(store, 5)
	present("oversized commit", false, false, false, false, false, true)

	for _, name := range strays {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() != int64(len(stray)) || !st.ModTime().Equal(at(0)) {
			t.Fatalf("eviction touched %s (err %v)", name, err)
		}
	}
}

// TestStoreIgnoresParentIndex opens a directory an earlier release
// wrote: the committed eonx fixture (in today's format) beside the
// index.json that release kept of its entries. The entry must load as a hit and Verify must
// report the store clean, and eviction must neither count nor remove
// the JSON file.
func TestStoreIgnoresParentIndex(t *testing.T) {
	p := genProg(t, "eonx", 120_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, Keyframe: 4}
	key := checkpoint.KeyFor(p, cfg, params)
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "eonx-cold-v5.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, key.Hash()+".ckpt")
	if err := os.WriteFile(entry, data, 0o644); err != nil {
		t.Fatal(err)
	}
	index := fmt.Sprintf(`{
  "entries": [
    {
      "hash": %q,
      "key": %q,
      "bytes": %d,
      "units": 12,
      "created": "2026-10-16T15:17:44.579540304Z",
      "last_used": "2026-10-16T15:17:44.584210331Z"
    }
  ]
}
`, key.Hash(), key.String(), len(data))
	indexPath := filepath.Join(dir, "index.json")
	if err := os.WriteFile(indexPath, []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	got, err := store.Load(key)
	if err != nil || got == nil {
		t.Fatalf("fixture entry is a miss (err %v)", err)
	}
	if rep, err := store.Verify(false); err != nil || rep.Entries != 1 || !rep.Clean() {
		t.Fatalf("verify: %+v (%v), want one clean entry", rep, err)
	}

	// Cap the store at exactly the fixture plus a second entry, with the
	// fixture the older: counting index.json would evict the fixture.
	copied := key
	copied.Workload = "eonx-copy"
	if err := store.Save(copied, got); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, copied.Hash()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(entry, old, old); err != nil {
		t.Fatal(err)
	}
	store.MaxBytes = int64(len(data)) + st.Size()
	if err := store.Save(copied, got); err != nil {
		t.Fatal(err)
	}
	if !store.Contains(key) || !store.Contains(copied) {
		t.Fatal("eviction counted the parent index.json")
	}
	if left, err := os.ReadFile(indexPath); err != nil || string(left) != index {
		t.Fatalf("eviction changed the parent index.json (err %v)", err)
	}
}

// TestStoreStreamingWriter exercises the SetWriter path the pipelined
// engine uses: units are added one at a time during the sweep and the
// entry becomes visible only after Commit.
func TestStoreStreamingWriter(t *testing.T) {
	p := genProg(t, "mcfx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 25, J: 2, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)

	var w *checkpoint.SetWriter
	sum, _, err := checkpoint.CaptureStream(context.Background(), p, cfg, params, func(u *checkpoint.Unit) bool {
		if w == nil {
			var werr error
			w, werr = store.Writer(key, p.Length/params.U)
			if werr != nil {
				t.Fatal(werr)
			}
			// Entry must not be visible while staged.
			if got, _ := store.Load(key); got != nil {
				t.Fatal("staged entry visible before Commit")
			}
		}
		if err := w.Add(u); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete || w == nil {
		t.Fatalf("sweep incomplete (%+v)", sum)
	}
	if err := w.Commit(sum.SweepInsts); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == nil || len(loaded.Units) != sum.Captured {
		t.Fatalf("reload after streamed save failed (%v)", loaded)
	}

	// A writer closed with no unit added leaves nothing behind.
	w2, err := store.Writer(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	leftovers, _ := filepath.Glob(filepath.Join(store.Dir(), "*.tmp-*"))
	if len(leftovers) != 0 {
		t.Fatalf("closed writer left temp files: %v", leftovers)
	}
}
