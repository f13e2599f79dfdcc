package checkpoint_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// TestParentFormatFixtures pins what the store makes of files earlier
// releases wrote (testdata/eonx-cold-v*: a cold eonx capture with
// Keyframe 4 committed as an entry, and the journal of the same sweep
// closed after 6 units). Version 4 files are clean misses: Load and
// LoadPartial return nothing and no error, Verify reports both files,
// and the next commit of the key replaces them. Version 5 files, the
// current format, keep their promises: the entry loads to the set a
// fresh capture produces, and the journal resumes to a unit stream
// bit-identical to an uninterrupted sweep.
func TestParentFormatFixtures(t *testing.T) {
	p := genProg(t, "eonx", 120_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, Keyframe: 4}
	key := checkpoint.KeyFor(p, cfg, params)
	fresh := capture(t, p, cfg, params)
	install := func(t *testing.T, version string) *checkpoint.Store {
		t.Helper()
		dir := t.TempDir()
		for _, ext := range []string{".ckpt", ".partial"} {
			data, err := os.ReadFile(filepath.Join("testdata", "eonx-cold-"+version+ext))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key.Hash()+ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		store, err := checkpoint.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	sameSet := func(t *testing.T, what string, got *checkpoint.Set) {
		t.Helper()
		if len(got.Units) != len(fresh.Units) || got.PopulationUnits != fresh.PopulationUnits || got.SweepInsts != fresh.SweepInsts {
			t.Fatalf("%s: %d units, population %d, %d sweep insts; fresh capture %d, %d, %d", what,
				len(got.Units), got.PopulationUnits, got.SweepInsts, len(fresh.Units), fresh.PopulationUnits, fresh.SweepInsts)
		}
		for i := range fresh.Units {
			unitsEqual(t, what, got.Units[i], fresh.Units[i])
		}
	}

	t.Run("v4", func(t *testing.T) {
		store := install(t, "v4")
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("v4 entry: (set=%v err=%v), want a miss", got != nil, err)
		}
		if hits, misses := store.Stats(); hits != 0 || misses != 1 {
			t.Fatalf("v4 entry counted %d hits, %d misses; want one miss", hits, misses)
		}
		if rs, err := store.LoadPartial(key); err != nil || rs != nil {
			t.Fatalf("v4 journal: (state=%v err=%v), want nothing to resume", rs != nil, err)
		}
		rep, err := store.Verify(false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries != 1 || rep.Partials != 1 || len(rep.Problems) != 2 {
			t.Fatalf("scrub must report the v4 entry and journal: %+v", rep)
		}
		if err := store.Save(key, fresh); err != nil {
			t.Fatal(err)
		}
		got, err := store.Load(key)
		if err != nil || got == nil {
			t.Fatalf("recommitted entry does not load (err %v)", err)
		}
		sameSet(t, "recommitted entry", got)
		if rep, err := store.Verify(false); err != nil || !rep.Clean() || rep.Partials != 0 {
			t.Fatalf("the commit left the v4 journal or a problem behind: %+v (%v)", rep, err)
		}
	})

	t.Run("v5", func(t *testing.T) {
		store := install(t, "v5")
		got, err := store.Load(key)
		if err != nil || got == nil {
			t.Fatalf("fixture entry is a miss (err %v)", err)
		}
		sameSet(t, "fixture entry", got)

		rs, err := store.LoadPartial(key)
		if err != nil || rs == nil || len(rs.Units) != 6 {
			t.Fatalf("fixture journal does not resume at 6 units (rs=%v err=%v)", rs != nil, err)
		}
		resumed := params
		resumed.Resume = rs
		combined := rs.Units
		sum, _, err := checkpoint.CaptureStream(context.Background(), p, cfg, resumed, func(u *checkpoint.Unit) bool {
			combined = append(combined, u)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(combined) != len(fresh.Units) || sum.SweepInsts != fresh.SweepInsts {
			t.Fatalf("resumed fixture: %d units over %d insts, fresh capture %d over %d",
				len(combined), sum.SweepInsts, len(fresh.Units), fresh.SweepInsts)
		}
		for i := range fresh.Units {
			unitsEqual(t, "resumed fixture", combined[i], fresh.Units[i])
		}
	})
}

// verifiedBefore walks an intact stream's records and returns, for a
// byte offset, the number of units whose records end at or before it:
// what a reader must resume from when the stream is cut there or
// damaged there.
func verifiedBefore(t *testing.T, data []byte, key checkpoint.Key) ([]checkpoint.Record, func(limit int) int) {
	t.Helper()
	recs, err := checkpoint.Records(data, key)
	if err != nil {
		t.Fatal(err)
	}
	return recs, func(limit int) int {
		n := 0
		for _, r := range recs {
			if r.End <= limit {
				n = r.Units
			}
		}
		return n
	}
}

// resumeUnits installs data as key's journal, loads it, checks the
// units it resumes from are the sweep's, and returns their number.
func resumeUnits(t *testing.T, store *checkpoint.Store, key checkpoint.Key, data []byte, want []*checkpoint.Unit) int {
	t.Helper()
	if err := os.WriteFile(filepath.Join(store.Dir(), key.Hash()+".partial"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := store.LoadPartial(key)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil {
		return 0
	}
	if len(rs.Units) > len(want) {
		t.Fatalf("journal holds %d units, the sweep %d", len(rs.Units), len(want))
	}
	for i, u := range rs.Units {
		if w := want[i]; u.Index != w.Index || u.LaunchAt != w.LaunchAt || u.Arch != w.Arch {
			t.Fatalf("journal unit %d is not the sweep's", i)
		}
	}
	// Materializing the last unit checks its whole delta chain.
	last := len(rs.Units) - 1
	unitsEqual(t, "journal prefix", rs.Units[last], want[last])
	return len(rs.Units)
}

// journaledEntry sweeps params through a store writer the way the
// engine does — every unit added as it is emitted — and commits it. It
// returns the store, the key, the captured set, and the journal file's
// bytes as they stood when the sweep emitted its midSweep-th unit.
func journaledEntry(t testing.TB, params checkpoint.Params, midSweep int) (*checkpoint.Store, checkpoint.Key, *checkpoint.Set, []byte) {
	t.Helper()
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	key := checkpoint.KeyFor(p, cfg, params)
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Writer(key, p.Length/params.U)
	if err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(store.Dir(), key.Hash()+".partial")
	set := &checkpoint.Set{K: params.K}
	var mid []byte
	sum, _, err := checkpoint.CaptureStream(context.Background(), p, cfg, params, func(u *checkpoint.Unit) bool {
		set.Units = append(set.Units, u)
		if len(set.Units) == midSweep {
			if mid, err = os.ReadFile(partial); err != nil {
				t.Fatal(err)
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
	if len(set.Units) < 2*midSweep {
		t.Fatalf("sweep captured %d units, the test needs at least %d", len(set.Units), 2*midSweep)
	}
	if err := w.Commit(sum.SweepInsts); err != nil {
		t.Fatal(err)
	}
	set.PopulationUnits, set.SweepInsts = sum.PopulationUnits, sum.SweepInsts
	return store, key, set, mid
}

// TestJournalOneStreamTwoEndings holds the store writer's one file to
// both of its readings, through 40 truncation points and 40 byte flips.
// The committed entry is EncodeSet's stream byte for byte, and the
// journal as it stood mid-sweep is a prefix of it, flushed through the
// last keyframe. Cut or damaged anywhere, the journal and the entry
// alike must give the partial reader exactly the units whose records
// end before the damage. The committed entry must load only intact.
func TestJournalOneStreamTwoEndings(t *testing.T) {
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	// The 18th unit is emitted after the keyframe at the 17th was added.
	const midSweep, flushed = 18, 17
	store, key, set, mid := journaledEntry(t, params, midSweep)
	entryPath := filepath.Join(store.Dir(), key.Hash()+".ckpt")
	partialPath := filepath.Join(store.Dir(), key.Hash()+".partial")
	committed, err := os.ReadFile(entryPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(partialPath); !os.IsNotExist(err) {
		t.Fatalf("the journal survived its own commit (stat err %v)", err)
	}

	loaded, err := store.Load(key)
	if err != nil || loaded == nil || len(loaded.Units) != len(set.Units) || loaded.SweepInsts != set.SweepInsts {
		t.Fatalf("committed journal does not load as the sweep (err %v)", err)
	}
	for i := range set.Units {
		unitsEqual(t, "committed journal", loaded.Units[i], set.Units[i])
	}
	var wire bytes.Buffer
	if err := checkpoint.EncodeSet(&wire, key, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, wire.Bytes()) {
		t.Fatalf("committed journal (%d bytes) is not EncodeSet's stream (%d bytes)", len(committed), wire.Len())
	}
	if !bytes.HasPrefix(committed, mid) {
		t.Fatal("the mid-sweep journal is not a prefix of the committed entry")
	}
	_, verified := verifiedBefore(t, committed, key)
	if got := verified(len(mid)); got != flushed {
		t.Fatalf("journal as of the %dth unit holds %d whole units, want the %d through the last keyframe", midSweep, got, flushed)
	}

	for _, file := range []struct {
		name string
		data []byte
	}{{"mid-sweep journal", mid}, {"committed entry", committed}} {
		data := file.data
		for i := 1; i < 40; i++ {
			cut := len(data) * i / 40
			if got, want := resumeUnits(t, store, key, data[:cut], set.Units), verified(cut); got != want {
				t.Fatalf("%s cut at %d: journal resumes at %d units, want %d", file.name, cut, got, want)
			}
		}
		for i := 0; i < 40; i++ {
			off := (len(data) - 1) * i / 39
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x5a
			if got, want := resumeUnits(t, store, key, mut, set.Units), verified(off); got != want {
				t.Fatalf("%s flip at %d: journal resumes at %d units, want %d", file.name, off, got, want)
			}
		}
	}
	if err := os.Remove(partialPath); err != nil {
		t.Fatal(err)
	}

	// The committed entry loads only intact.
	for i := 1; i < 40; i++ {
		cut := len(committed) * i / 40
		if err := os.WriteFile(entryPath, committed[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("entry cut at %d: (set=%v err=%v), want miss", cut, got != nil, err)
		}
	}
	for i := 0; i < 40; i++ {
		off := (len(committed) - 1) * i / 39
		mut := append([]byte(nil), committed...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(entryPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := store.Load(key); err != nil || got != nil {
			t.Fatalf("entry flip at %d: (set=%v err=%v), want miss", off, got != nil, err)
		}
	}
}

// TestRecordTamper applies record-level defects that leave every byte
// of every record intact — two page records swapped, one record
// replaced by the record at the same position of another key's entry,
// one record dropped — and one flipped byte in the last unit record, to
// an entry and to its journal. Each record is sealed with its key and
// its position, so the entry is a miss to every reader (Load, Stream,
// DecodeSet), and a journal — the entry as well as the entry cut before
// its End record — resumes from exactly the units before the defect.
func TestRecordTamper(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, FunctionalWarm: true, Keyframe: 4}
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	// Another key whose entry holds the same units: its records differ
	// from key's only in their seals.
	other := params
	other.MaxUnits = 10 * len(set.Units)
	otherKey := checkpoint.KeyFor(p, cfg, other)
	encode := func(k checkpoint.Key) []byte {
		var buf bytes.Buffer
		if err := checkpoint.EncodeSet(&buf, k, set); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	entry, otherEntry := encode(key), encode(otherKey)
	recs, _ := verifiedBefore(t, entry, key)
	otherRecs, _ := verifiedBefore(t, otherEntry, otherKey)
	if len(recs) != len(otherRecs) {
		t.Fatalf("the two keys' entries hold %d and %d records", len(recs), len(otherRecs))
	}
	end := recs[len(recs)-1]
	if end.Tag != checkpoint.TagEnd || end.Units != len(set.Units) {
		t.Fatalf("the entry ends with record tag %d after %d units", end.Tag, end.Units)
	}

	// The defects aim at records past the middle of the stream, so the
	// units before them are a long prefix.
	find := func(from int, ok func(i int) bool) int {
		for i := from; i < len(recs)-1; i++ {
			if ok(i) {
				return i
			}
		}
		t.Fatal("no record fits the defect")
		return 0
	}
	midRec := len(recs) / 2
	swapAt := find(midRec, func(i int) bool { return recs[i].Tag == checkpoint.TagPage && recs[i+1].Tag == checkpoint.TagPage })
	replaceAt := find(midRec, func(i int) bool { return recs[i].Tag == checkpoint.TagUnit })
	dropAt := find(midRec, func(i int) bool { return recs[i].Tag == checkpoint.TagPage })
	lastUnit := len(recs) - 2
	cut := func(data []byte, r checkpoint.Record) ([]byte, []byte) {
		return append([]byte(nil), data[:r.Start]...), data[r.End:]
	}
	for _, d := range []struct {
		name   string
		at     int // the first record the defect breaks
		tamper func([]byte) []byte
	}{
		{"swap two adjacent page records", swapAt, func(data []byte) []byte {
			head, tail := cut(data, recs[swapAt])
			next := recs[swapAt+1]
			head = append(head, data[next.Start:next.End]...)
			head = append(head, data[recs[swapAt].Start:recs[swapAt].End]...)
			return append(head, tail[next.End-recs[swapAt].End:]...)
		}},
		{"replace a unit record with another key's", replaceAt, func(data []byte) []byte {
			head, tail := cut(data, recs[replaceAt])
			foreign := otherRecs[replaceAt]
			return append(append(head, otherEntry[foreign.Start:foreign.End]...), tail...)
		}},
		{"drop a page record", dropAt, func(data []byte) []byte {
			head, tail := cut(data, recs[dropAt])
			return append(head, tail...)
		}},
		{"flip a byte of the last unit record", lastUnit, func(data []byte) []byte {
			mut := append([]byte(nil), data...)
			r := recs[lastUnit]
			mut[(r.Start+r.End)/2] ^= 0x01
			return mut
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			want := recs[d.at-1].Units
			store, err := checkpoint.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			damaged := d.tamper(entry)
			if err := os.WriteFile(filepath.Join(store.Dir(), key.Hash()+".ckpt"), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := store.Load(key); err != nil || got != nil {
				t.Fatalf("Load: (set=%v err=%v), want a miss", got != nil, err)
			}
			sum, err := store.Stream(context.Background(), key, readAll(func(*checkpoint.Unit, *checkpoint.Launch) {}))
			if err != nil || sum != nil {
				t.Fatalf("Stream: (%v, %v), want a miss", sum, err)
			}
			if hits, misses := store.Stats(); hits != 0 || misses != 2 {
				t.Fatalf("Load and Stream counted %d hits, %d misses; want two misses", hits, misses)
			}
			if _, err := checkpoint.DecodeSet(bytes.NewReader(damaged), key); err == nil {
				t.Fatal("DecodeSet accepted the damaged entry")
			}
			for _, j := range []struct {
				name string
				data []byte
			}{{"entry", damaged}, {"journal", d.tamper(entry[:end.Start])}} {
				if got := resumeUnits(t, store, key, j.data, set.Units); got != want {
					t.Fatalf("damaged %s resumes at %d units, want the %d before the defect", j.name, got, want)
				}
			}
		})
	}
}

// storeFiles lists the store directory's file names.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestJournalLeavesNoStagingFiles pins what a store writer leaves in
// the directory. One abandoned after a checkpoint — a crash: no Close —
// leaves exactly the key's journal, flushed through the keyframe the
// writer last checkpointed at, which resumes. Two writers of one key,
// journaling, committing and closing in interleaved orders, leave a
// loadable entry or a miss, and never a staged temp file: a writer
// whose journal another replaced or retired fails its Commit instead of
// committing that other sweep's unfinished file, and leaves the other's
// journal in place; a writer that does not outgrow the journal it
// loaded leaves that journal be.
func TestJournalLeavesNoStagingFiles(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, FunctionalWarm: true, Keyframe: 4}
	key := checkpoint.KeyFor(p, cfg, params)
	set := &checkpoint.Set{K: params.K}
	sum, _, err := checkpoint.CaptureStream(context.Background(), p, cfg, params, func(u *checkpoint.Unit) bool {
		set.Units = append(set.Units, u)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Units) < 8 {
		t.Fatalf("plan too small: %d units", len(set.Units))
	}
	pop := p.Length / params.U

	t.Run("crash after a checkpoint", func(t *testing.T) {
		store, err := checkpoint.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w, err := store.Writer(key, pop)
		if err != nil {
			t.Fatal(err)
		}
		// Unit 4 is a keyframe: the writer checkpoints, flushing through it.
		for _, u := range set.Units[:7] {
			if err := w.Add(u); err != nil {
				t.Fatal(err)
			}
		}
		// w is abandoned here, its last two units unflushed.
		if files := storeFiles(t, store.Dir()); len(files) != 1 || files[0] != key.Hash()+".partial" {
			t.Fatalf("crashed writer left %v, want only the journal", files)
		}
		rs, err := store.LoadPartial(key)
		if err != nil || rs == nil || len(rs.Units) != 5 {
			t.Fatalf("crashed writer's journal does not resume at 5 units (rs=%v err=%v)", rs != nil, err)
		}
		resumed := params
		resumed.Resume = rs
		combined := rs.Units
		if _, _, err := checkpoint.CaptureStream(context.Background(), p, cfg, resumed, func(u *checkpoint.Unit) bool {
			combined = append(combined, u)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(combined) != len(set.Units) {
			t.Fatalf("resumed sweep has %d units, want %d", len(combined), len(set.Units))
		}
		for i := range combined {
			unitsEqual(t, "resumed after crash", combined[i], set.Units[i])
		}
	})

	// Each step is a writer (A or B) and an operation: C adds every unit
	// the writer has not yet added (checkpointing the journal at the
	// keyframes), L loads the key's journal, M adds what is left and
	// commits, X closes. journal is whether a journal of every unit must
	// be left.
	for _, tc := range []struct {
		steps   string
		journal bool
	}{
		{"AC BC AM BM", false}, // B's journal replaced A's: A's commit fails
		{"AC BC AM BX", true},  // ... and leaves B's journal alone
		{"AC BC BM AM", false},
		{"BC AM BC BM", false}, // A's journal replaced B's, its commit retires it
		{"BC BM AM", false},
		{"AC AM BC BM", false},
		{"AC BX AM", false},      // B held nothing: its close leaves A's journal be
		{"AC AX BL BC BX", true}, // B never outgrew A's journal: A's stays
		{"AC AX BL BC BM", false},
	} {
		steps := tc.steps
		t.Run(steps, func(t *testing.T) {
			store, err := checkpoint.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			writers := map[byte]*checkpoint.SetWriter{}
			added := map[byte]int{}
			for _, name := range []byte("AB") {
				w, err := store.Writer(key, pop)
				if err != nil {
					t.Fatal(err)
				}
				writers[name] = w
			}
			// addRest adds the units name has not yet added.
			addRest := func(name byte) {
				for _, u := range set.Units[added[name]:] {
					if err := writers[name].Add(u); err != nil {
						t.Fatal(err)
					}
				}
				added[name] = len(set.Units)
			}
			committed := 0
			for _, step := range strings.Fields(steps) {
				w := writers[step[0]]
				switch step[1] {
				case 'C':
					addRest(step[0])
				case 'L':
					w.Load()
				case 'M':
					addRest(step[0])
					if w.Commit(sum.SweepInsts) == nil {
						committed++
					}
				case 'X':
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, name := range storeFiles(t, store.Dir()) {
				if strings.Contains(name, ".tmp-") {
					t.Fatalf("staged file %s left behind (store holds %v)", name, storeFiles(t, store.Dir()))
				}
			}
			rs, err := store.LoadPartial(key)
			if err != nil || (rs != nil) != tc.journal || rs != nil && len(rs.Units) != len(set.Units) {
				t.Fatalf("journal left: %v, want %v (err %v)", rs != nil, tc.journal, err)
			}
			got, err := store.Load(key)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				if committed > 0 {
					t.Fatalf("%d commits succeeded, but the entry is a miss", committed)
				}
				return
			}
			if len(got.Units) != len(set.Units) {
				t.Fatalf("entry has %d units, want %d", len(got.Units), len(set.Units))
			}
			for i := range set.Units {
				unitsEqual(t, "entry", got.Units[i], set.Units[i])
			}
		})
	}
}
