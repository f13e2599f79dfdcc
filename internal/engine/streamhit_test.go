package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// streamFixture is one plan, the result and progress trace of running
// it cold, and the entry bytes a store commits for it.
type streamFixture struct {
	prog   *program.Program
	cfg    uarch.Config
	params checkpoint.Params
	key    checkpoint.Key
	set    *checkpoint.Set // the same sweep captured in memory
	cold   *engine.Result
	trace  progressTrace
	entry  []byte
}

// streamKeyframe gives the fixture's entry several keyframes, so rows
// can cut or corrupt a chain in its middle.
const streamKeyframe = 8

// progressTrace records every progress callback of one run.
type progressTrace struct {
	captured []int
	replayed []int
	means    []uint64 // CPI estimate bits at each OnReplayed
}

func (tr *progressTrace) options(opt engine.Options) engine.Options {
	opt.OnCaptured = func(n int) { tr.captured = append(tr.captured, n) }
	opt.OnReplayed = func(n int, est stats.Estimate) {
		tr.replayed = append(tr.replayed, n)
		tr.means = append(tr.means, math.Float64bits(est.Mean))
	}
	return opt
}

func newStreamFixture(t *testing.T) *streamFixture {
	t.Helper()
	f := &streamFixture{
		prog:   genProg(t, "gccx", 300_000),
		cfg:    uarch.Config8Way(),
		params: checkpoint.Params{U: 1000, W: 1000, K: 8, J: 3, FunctionalWarm: true},
	}
	f.key = checkpoint.KeyFor(f.prog, f.cfg, f.params)
	var err error
	if f.cold, err = engine.Run(context.Background(), f.prog, f.cfg, f.params,
		f.trace.options(engine.Options{Workers: 2})); err != nil {
		t.Fatal(err)
	}
	kp := f.params
	kp.Keyframe = streamKeyframe
	if f.set, err = checkpoint.Capture(context.Background(), f.prog, f.cfg, kp); err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(context.Background(), f.prog, f.cfg, kp,
		engine.Options{Workers: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	if f.entry, err = os.ReadFile(f.entryPath(store)); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *streamFixture) entryPath(store *checkpoint.Store) string {
	return filepath.Join(store.Dir(), f.key.Hash()+".ckpt")
}

// firstRecord is the offset of the entry's first record after the
// manifest: past the magic, the version and the length-prefixed,
// sealed manifest.
func (f *streamFixture) firstRecord(t *testing.T) int {
	t.Helper()
	off := 12 + 8 + int(binary.LittleEndian.Uint64(f.entry[12:])) + 4
	if tag := binary.LittleEndian.Uint64(f.entry[off:]); tag != 1 {
		t.Fatalf("first record has tag %d, want a page record", tag)
	}
	return off
}

// unitRecord is the offset of unit i's record: its tag, then its index,
// start and launch point.
func (f *streamFixture) unitRecord(t *testing.T, i int) int {
	t.Helper()
	u := f.set.Units[i]
	var head [32]byte
	for k, v := range []uint64{2, u.Index, u.Start, u.LaunchAt} {
		binary.LittleEndian.PutUint64(head[8*k:], v)
	}
	off := bytes.Index(f.entry, head[:])
	if off < 0 {
		t.Fatalf("unit %d's record not found", i)
	}
	return off
}

// endRecord is the offset of the End record: its tag, the unit count,
// the two sweep totals and its seal.
func (f *streamFixture) endRecord() int {
	return len(f.entry) - (8*4 + 4)
}

func flipped(b []byte, off int) []byte {
	b = slices.Clone(b)
	b[off] ^= 0x5a
	return b
}

// TestStreamedHitDegradesToCold is the streamed hit's integrity table.
// A store hit is replayed while the entry is read, before its End
// record shows it complete, so every defect a record's seal or the
// decoder finds later — and a replay that fails, however far the read
// had got by then — must throw
// away what was replayed and run cold: the cold run's results and
// progress trace exactly (no unit of the bad entry reaches the Merger,
// OnCaptured or OnReplayed), one store miss, and an entry rewritten so
// the next run hits.
func TestStreamedHitDegradesToCold(t *testing.T) {
	f := newStreamFixture(t)
	if len(f.set.Units) < 30 || len(f.cold.Units) != len(f.set.Units) {
		t.Fatalf("plan too small: %d units captured, %d measured", len(f.set.Units), len(f.cold.Units))
	}
	// save commits the fixture's set with unit i replaced by what edit
	// makes of a copy of it: an entry that decodes and seals.
	save := func(i int, edit func(*checkpoint.Unit)) func(*testing.T, *checkpoint.Store) {
		return func(t *testing.T, store *checkpoint.Store) {
			bad := *f.set.Units[i]
			edit(&bad)
			units := slices.Clone(f.set.Units)
			units[i] = &bad
			set := *f.set
			set.Units = units
			if err := store.Save(f.key, &set); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A unit whose arch state points outside the code fails on replay.
	// Early in the entry the pool stops the reader long before the End
	// record; the last unit fails after its own seal has been checked,
	// when the reader has as good as read the End record. The outcome
	// must not depend on which.
	badPC := func(u *checkpoint.Unit) { u.Arch.PC = uint64(len(f.prog.Code)) + 1 }
	// A keyframe whose parallel warm arrays disagree in length, followed
	// by delta units that index past the short one: a decode error, not
	// a panic on the reader's goroutine.
	shortKeyframe := func(short func(*checkpoint.WarmState)) func(*checkpoint.Unit) {
		return func(u *checkpoint.Unit) {
			if u.Mem == nil || u.Warm == nil || f.set.Units[1].Delta == nil {
				t.Fatal("unit 0 is not a warm keyframe followed by a delta unit")
			}
			u.Warm = u.Warm.Clone()
			short(u.Warm)
		}
	}
	last := len(f.set.Units) - 1
	write := func(b []byte) func(*testing.T, *checkpoint.Store) {
		return func(t *testing.T, store *checkpoint.Store) {
			if err := os.WriteFile(f.entryPath(store), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []struct {
		name  string
		plant func(*testing.T, *checkpoint.Store)
	}{
		{"unit record", write(flipped(f.entry, f.unitRecord(t, 5)+8*8+3))}, // a register of unit 5
		{"page record", write(flipped(f.entry, f.firstRecord(t)+16+100))},
		{"seal", write(flipped(f.entry, len(f.entry)-2))}, // the End record's
		{"truncated mid-unit", write(f.entry[:f.unitRecord(t, 12)+200])},
		{"truncated before end", write(f.entry[:f.endRecord()])},
		{"replay error", save(2, badPC)},
		{"replay error after the seal", save(last, badPC)},
		{"short cache keyframe array", save(0, shortKeyframe(func(w *checkpoint.WarmState) { w.Hier.DL1.Valid = w.Hier.DL1.Valid[:1] }))},
		{"short predictor keyframe table", save(0, shortKeyframe(func(w *checkpoint.WarmState) { w.Pred.Gshare = w.Pred.Gshare[:1] }))},
		{"short BTB keyframe array", save(0, shortKeyframe(func(w *checkpoint.WarmState) { w.Pred.BTBLRU = w.Pred.BTBLRU[:1] }))},
	} {
		t.Run(row.name, func(t *testing.T) {
			store, err := checkpoint.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			row.plant(t, store)
			planted, err := os.ReadFile(f.entryPath(store))
			if err != nil {
				t.Fatal(err)
			}
			var tr progressTrace
			res, err := engine.Run(context.Background(), f.prog, f.cfg, f.params,
				tr.options(engine.Options{Workers: 2, Store: store}))
			if err != nil {
				t.Fatal(err)
			}
			if res.SweepCached {
				t.Fatal("a bad entry was reported as a hit")
			}
			resultsBitIdentical(t, row.name, f.cold, res)
			if !slices.Equal(tr.captured, f.trace.captured) || !slices.Equal(tr.replayed, f.trace.replayed) ||
				!slices.Equal(tr.means, f.trace.means) {
				t.Fatalf("progress differs from a cold run's: captured %v, replayed %v", tr.captured, tr.replayed)
			}
			if hits, misses := store.Stats(); hits != 0 || misses != 1 {
				t.Fatalf("store stats %d/%d, want 0 hits 1 miss", hits, misses)
			}
			rewritten, err := os.ReadFile(f.entryPath(store))
			if err != nil || bytes.Equal(rewritten, planted) {
				t.Fatalf("entry not rewritten (%v)", err)
			}
			again, err := engine.Run(context.Background(), f.prog, f.cfg, f.params, engine.Options{Workers: 2, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if !again.SweepCached {
				t.Fatal("the rewritten entry does not hit")
			}
			resultsBitIdentical(t, row.name+" rewritten", f.cold, again)
		})
	}
}

// TestStreamedHitMatchesCold pins the streamed hit itself: the result
// and the final progress report are the cold run's, the captured total
// is reported once, and the estimate only as the sealed units fold.
func TestStreamedHitMatchesCold(t *testing.T) {
	f := newStreamFixture(t)
	for _, workers := range []int{1, 2, 5} {
		store, err := checkpoint.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f.entryPath(store), f.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		var tr progressTrace
		res, err := engine.Run(context.Background(), f.prog, f.cfg, f.params,
			tr.options(engine.Options{Workers: workers, Store: store}))
		if err != nil {
			t.Fatal(err)
		}
		if !res.SweepCached {
			t.Fatalf("workers=%d: the entry did not hit", workers)
		}
		resultsBitIdentical(t, "streamed hit", f.cold, res)
		if !slices.Equal(tr.captured, []int{len(f.set.Units)}) {
			t.Fatalf("workers=%d: captured reports %v, want the total once", workers, tr.captured)
		}
		if !slices.Equal(tr.replayed, f.trace.replayed) || !slices.Equal(tr.means, f.trace.means) {
			t.Fatalf("workers=%d: replay progress differs from a cold run's", workers)
		}
		if hits, misses := store.Stats(); hits != 1 || misses != 0 {
			t.Fatalf("workers=%d: store stats %d/%d, want 1 hit", workers, hits, misses)
		}
	}
}

// cancelAfter is a context its own nth Err call cancels. The streamed
// reader asks once per unit, so it cancels a hit mid-stream at a
// deterministic unit.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestStreamedHitCancel cancels a streamed hit at its first unit, in
// the middle of the stream, at its last unit, and while the sealed
// results fold: each run returns ctx.Err(), and none leaks a goroutine,
// counts a miss or changes the entry.
func TestStreamedHitCancel(t *testing.T) {
	f := newStreamFixture(t)
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.entryPath(store), f.entry, 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	n := int32(len(f.set.Units))
	for _, at := range []int32{2, 7, 20, n + 1, n + 3} {
		inner, cancel := context.WithCancel(context.Background())
		ctx := &cancelAfter{Context: inner, cancel: cancel}
		ctx.left.Store(at)
		var tr progressTrace
		res, err := engine.Run(ctx, f.prog, f.cfg, f.params, tr.options(engine.Options{Workers: 2, Store: store}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: got (%v, %v), want context.Canceled", at, res, err)
		}
		if _, misses := store.Stats(); misses != 0 {
			t.Fatalf("cancel at check %d: a cancelled read counted a miss", at)
		}
	}
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > baseline+2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
	if got, err := os.ReadFile(f.entryPath(store)); err != nil || !bytes.Equal(got, f.entry) {
		t.Fatalf("a cancelled read changed the entry (%v)", err)
	}
}

// TestStreamedHitAllocation machine-checks the streamed hit's
// allocation discipline on a sparse warmed plan (about 40 KB of warm
// delta per unit). A priming hit allocates at most the entry's page
// bytes — pages are decoded once and shared copy-on-write by every
// launch — plus 16 KiB per unit, which covers the machines, the rolling
// launch state and the decode buffers a run sizes once. The next hit
// allocates at most 4 KiB per unit (it measures about 1.2 KiB): its
// pages are decoded into the page arena the priming hit left in the
// store reader, and its launchers, rolling launch state and decode
// buffers are the ones the priming hit sized, so the allowance covers
// only what each unit's replay reports. Decoding the pages into arrays
// of their own (1.9 MB for this entry), or each unit's deltas into
// slices of their own, as a kept set needs, exceeds it.
func TestStreamedHitAllocation(t *testing.T) {
	const primingPerUnit, perUnit = 16 << 10, 4 << 10
	p := genProg(t, "gccx", 6_000_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 20, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Workers: 2, Store: store}
	if _, err := engine.Run(context.Background(), p, cfg, params, opt); err != nil {
		t.Fatal(err)
	}
	set, err := store.Load(checkpoint.KeyFor(p, cfg, params))
	if err != nil || set == nil {
		t.Fatalf("no entry to stream (%v)", err)
	}
	if len(set.Units) < 250 || set.WarmBytes()/len(set.Units) < 2*perUnit {
		t.Fatalf("plan not sparse enough: %d units, %d warm bytes per unit", len(set.Units), set.WarmBytes()/len(set.Units))
	}
	hits := []struct {
		name  string
		limit uint64
	}{
		{"priming", uint64(set.MemBytes() + primingPerUnit*len(set.Units))}, // page bytes + 16 KiB per unit
		{"second", uint64(perUnit * len(set.Units))},                        // 4 KiB per unit
	}
	t.Logf("entry: %d units, %d B of pages", len(set.Units), set.MemBytes())
	set = nil

	for _, hit := range hits {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := engine.Run(context.Background(), p, cfg, params, opt)
		runtime.ReadMemStats(&after)
		if err != nil || !res.SweepCached {
			t.Fatalf("no streamed %s hit (%v)", hit.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s hit, %d units: %d B allocated, limit %d B", hit.name, len(res.Units), got, hit.limit)
		if got > hit.limit {
			t.Errorf("the %s streamed hit allocated %d B, want <= %d", hit.name, got, hit.limit)
		}
	}
}
