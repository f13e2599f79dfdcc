package checkpoint_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/freelist"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// corruptLength is the length TestCorruptLengthAllocation plants in an
// entry's length prefixes: 200 MB of payload, under the codec's 256 MB
// sanity cap, in a file of a few hundred KB.
const corruptLength = 200 << 20

// corruptLengths returns two copies of the intact stream data keyed by k
// whose records claim corruptLength bytes the stream does not hold: one
// with the first page record's length set to it, one with the first unit
// record's register run (a u64s length, the first after the unit's three
// position words) set to it. Each record's seal is left as it was; a
// reader reads a length before it can check the seal.
func corruptLengths(t testing.TB, data []byte, k checkpoint.Key) (page, unit []byte) {
	t.Helper()
	recs, err := checkpoint.Records(data, k)
	if err != nil {
		t.Fatal(err)
	}
	set := func(tag uint64, off int, v uint64) []byte {
		for _, r := range recs {
			if r.Tag == tag {
				out := bytes.Clone(data)
				binary.LittleEndian.PutUint64(out[r.Start+off:], v)
				return out
			}
		}
		t.Fatalf("stream has no record tagged %d", tag)
		return nil
	}
	return set(checkpoint.TagPage, 8, corruptLength), set(checkpoint.TagUnit, 32, corruptLength/8)
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptLengthAllocation pins that a length prefix costs a reader
// no more than the bytes that actually arrive: an entry of a cold gzipx
// sweep whose first page record, or whose first unit record's register
// run, claims 200 MB is read by every reader — Store.Load, Store.Stream,
// DecodeSet, Store.LoadPartial (installed as the key's journal) and
// Verify (as an entry and as a journal) — and each must return a clean
// miss or an error having allocated under 1 MB.
func TestCorruptLengthAllocation(t *testing.T) {
	const limit = 1 << 20
	p := genProg(t, "gzipx", 120_000)
	params := checkpoint.Params{U: 1000, W: 1000, K: 20}
	cfg := uarch.Config8Way()
	set := capture(t, p, cfg, params)
	key := checkpoint.KeyFor(p, cfg, params)
	var wire bytes.Buffer
	if err := checkpoint.EncodeSet(&wire, key, set); err != nil {
		t.Fatal(err)
	}
	pageLen, unitLen := corruptLengths(t, wire.Bytes(), key)
	t.Logf("entry of %d B, %d units", wire.Len(), len(set.Units))

	for _, c := range []struct {
		name string
		data []byte
	}{{"page length", pageLen}, {"unit register run", unitLen}} {
		t.Run(c.name, func(t *testing.T) {
			store, err := checkpoint.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			entry := filepath.Join(store.Dir(), key.Hash()+".ckpt")
			partial := filepath.Join(store.Dir(), key.Hash()+".partial")
			check := func(reader, install string, read func() bool) {
				t.Helper()
				if install != "" {
					if err := os.WriteFile(install, c.data, 0o644); err != nil {
						t.Fatal(err)
					}
					defer os.Remove(install)
				}
				var missed bool
				got := allocated(func() { missed = read() })
				t.Logf("%s: %d B allocated", reader, got)
				if !missed {
					t.Errorf("%s read a corrupt entry without a miss or an error", reader)
				}
				if got >= limit {
					t.Errorf("%s allocated %d B on a %d B input, want < %d", reader, got, len(c.data), limit)
				}
			}
			check("Load", entry, func() bool {
				set, err := store.Load(key)
				return set == nil && err == nil
			})
			check("Stream", entry, func() bool {
				sum, err := store.Stream(context.Background(), key, readAll(func(*checkpoint.Unit, *checkpoint.Launch) {}))
				return sum == nil && err == nil
			})
			check("DecodeSet", "", func() bool {
				_, err := checkpoint.DecodeSet(bytes.NewReader(c.data), key)
				return err != nil
			})
			check("LoadPartial", partial, func() bool {
				rs, err := store.LoadPartial(key)
				return rs == nil && err == nil
			})
			for _, path := range []string{entry, partial} {
				check("Verify "+filepath.Ext(path), path, func() bool {
					rep, err := store.Verify(false)
					return err == nil && len(rep.Problems) == 1
				})
			}
		})
	}
}

// pagedSet returns a cold three-unit set over a memory of pages pages
// whose contents derive from seed: a keyframe, a delta unit that
// rewrites every fourth page, and a second keyframe after every third
// page is rewritten again.
func pagedSet(t *testing.T, pages int, seed byte) *checkpoint.Set {
	t.Helper()
	m := mem.New()
	fill := func(every int, round byte) {
		buf := make([]byte, mem.PageSize)
		for pg := 0; pg < pages; pg += every {
			for i := range buf {
				buf[i] = seed + round + byte(pg) + byte(i*7)
			}
			m.WriteBytes(uint64(pg)*mem.PageSize, buf)
		}
	}
	unit := func(i uint64) *checkpoint.Unit {
		u := &checkpoint.Unit{Index: i, Start: i * 1000, LaunchAt: i * 1000}
		u.Arch.Regs[isa.NumRegs-1], u.Arch.Count = uint64(seed)<<8|i, i*1000
		return u
	}
	fill(1, 0)
	u0 := unit(0)
	u0.Mem = m.Snapshot()
	fill(4, 1)
	u1 := unit(1)
	d, err := m.Delta(m.Seq())
	if err != nil {
		t.Fatal(err)
	}
	u1.MemDelta, u1.Prev = d, u0
	fill(3, 2)
	u2 := unit(2)
	u2.Mem = m.Snapshot()
	return &checkpoint.Set{Units: []*checkpoint.Unit{u0, u1, u2}, K: 1, PopulationUnits: 3}
}

// TestStreamedReaderReuse pins the streamed reader's page arena: one
// pooled reader streams an entry of more pages than the arena keeps,
// then an entry of fewer pages with other contents — decoded into
// arrays that still hold the first entry's — then the first again. Each
// read must hand out exactly the launches Load and Materialize build for
// the same entry, page contents included.
func TestStreamedReaderReuse(t *testing.T) {
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{"large": checkpoint.ArenaPages + 300, "small": 200}
	keys := map[string]checkpoint.Key{}
	for name, pages := range entries {
		k := checkpoint.Key{Workload: name, ProgramHash: "arena", U: 1000, W: 1000, K: 1}
		if err := store.Save(k, pagedSet(t, pages, byte(pages))); err != nil {
			t.Fatal(err)
		}
		keys[name] = k
	}
	freelist.Drain()
	built := freelist.Built()["store reader"]
	for _, name := range []string{"large", "small", "large"} {
		k := keys[name]
		set, err := store.Load(k)
		if err != nil || set == nil {
			t.Fatalf("%s: Load (%v)", name, err)
		}
		var want, got []launchCopy
		var m checkpoint.Materializer
		for _, u := range set.Units {
			l, err := m.Materialize(u)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, copyLaunch(u, l))
		}
		sum, err := store.Stream(context.Background(), k, readAll(func(u *checkpoint.Unit, l *checkpoint.Launch) {
			got = append(got, copyLaunch(u, l))
		}))
		if err != nil || sum == nil {
			t.Fatalf("%s: Stream missed (%v)", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s entry (%d pages): the streamed launches differ from Load's", name, entries[name])
		}
	}
	if n := freelist.Built()["store reader"] - built; n != 1 {
		t.Fatalf("three streamed reads built %d readers, want 1 reused by all", n)
	}
}
