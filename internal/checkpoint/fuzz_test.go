package checkpoint_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// fuzzWire captures a small real sweep once and returns its key, its
// EncodeSet bytes — what a store writer commits for the same units —
// the journal a store writer leaves when it closes after adding every
// unit, and the entry with one byte of its last unit record flipped:
// the corpus the fuzzers mutate. Readers must never panic: any
// corruption degrades to an error (full sets) or to the units verified
// before it (partials).
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
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	partial, err := os.ReadFile(filepath.Join(store.Dir(), key.Hash()+".partial"))
	if err != nil {
		f.Fatal(err)
	}
	recs, err := checkpoint.Records(wire.Bytes(), key)
	if err != nil {
		f.Fatal(err)
	}
	tampered := bytes.Clone(wire.Bytes())
	for i := len(recs) - 1; i >= 0; i-- {
		if r := recs[i]; r.Tag == checkpoint.TagUnit {
			tampered[(r.Start+r.End)/2] ^= 0x40
			break
		}
	}
	return key, wire.Bytes(), partial, tampered
}

// checkDecodeAlloc asserts the decoders' allocation property: reading
// an input of n bytes allocates at most decodePerByte·n + decodeFixed
// bytes, whatever its length prefixes claim. decodePerByte covers a
// kept set's decode of its own bytes (pages, runs, unit structs, and
// the keyframe page tables, which cost a map entry per 16-byte table
// row) and fill's growth ahead of a run that is cut short; decodeFixed
// covers what a read costs before its first record: the 64 KB read
// buffer, the manifest's gob decoding, fill's first step and, on
// Stream's first read, the reader it builds.
func checkDecodeAlloc(t *testing.T, reader string, got uint64, n int) {
	t.Helper()
	const (
		decodePerByte = 8
		decodeFixed   = 1 << 20
	)
	if limit := uint64(decodePerByte*n + decodeFixed); got > limit {
		t.Fatalf("%s allocated %d B on a %d B input, want <= %d·n + %d = %d", reader, got, n, decodePerByte, decodeFixed, limit)
	}
}

// FuzzDecodeSet feeds mutated set streams to DecodeSet: it must never
// panic, must return either an error or a structurally sound Set, and
// must allocate in proportion to its input (checkDecodeAlloc).
func FuzzDecodeSet(f *testing.F) {
	key, wire, partial, tampered := fuzzWire(f)
	pageLen, unitLen := corruptLengths(f, wire, key)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:16])
	f.Add(partial) // a partial stream is not a valid full set
	f.Add([]byte{})
	f.Add(tampered) // the last unit fails its seal
	f.Add(pageLen)  // a page record claims 200 MB
	f.Add(unitLen)  // a unit's register run claims 200 MB
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			set *checkpoint.Set
			err error
		)
		got := allocated(func() { set, err = checkpoint.DecodeSet(bytes.NewReader(data), key) })
		checkDecodeAlloc(t, "DecodeSet", got, len(data))
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
// must never panic, corruption must degrade to a miss or to the units
// verified before it, and the load must allocate in proportion to the
// journal (checkDecodeAlloc).
func FuzzDecodePartial(f *testing.F) {
	key, wire, partial, tampered := fuzzWire(f)
	pageLen, unitLen := corruptLengths(f, partial, key)
	f.Add(partial)
	f.Add(partial[:len(partial)/2])
	f.Add(partial[:16])
	f.Add(wire) // a committed entry resumes from its last unit
	f.Add([]byte{})
	f.Add(tampered) // resumes from the unit before the last
	f.Add(pageLen)  // a page record claims 200 MB: no unit
	f.Add(unitLen)  // the first unit's register run claims 200 MB: no unit
	store, err := checkpoint.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(store.Dir(), key.Hash()+".partial")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			rs  *checkpoint.ResumeState
			err error
		)
		got := allocated(func() { rs, err = store.LoadPartial(key) })
		checkDecodeAlloc(t, "LoadPartial", got, len(data))
		if err != nil {
			t.Fatalf("LoadPartial of a readable journal failed: %v", err)
		}
		if rs == nil {
			return
		}
		if len(rs.Units) == 0 {
			t.Fatal("LoadPartial returned a state without units")
		}
		for i, u := range rs.Units {
			if u == nil {
				t.Fatalf("decoded unit %d is nil", i)
			}
		}
	})
}

// launchCopy is what a streamed unit handed its consumer: the header and
// a copy of the launch state, which the reader rolls on afterwards.
type launchCopy struct {
	index, start, launchAt uint64
	arch                   functional.ArchState
	mem                    [sha256.Size]byte
	warm                   *checkpoint.WarmState
}

func copyLaunch(u *checkpoint.Unit, l *checkpoint.Launch) launchCopy {
	c := launchCopy{index: u.Index, start: u.Start, launchAt: u.LaunchAt, arch: u.Arch, mem: imageDigest(l.Mem)}
	if l.Warm != nil {
		c.warm = l.Warm.Clone()
	}
	return c
}

// readAll is a Store.Stream consumer that runs the read to its end on
// the calling goroutine, handing every unit to take.
func readAll(take func(*checkpoint.Unit, *checkpoint.Launch)) func(func(func(*checkpoint.Unit, *checkpoint.Launch) bool)) error {
	return func(read func(emit func(*checkpoint.Unit, *checkpoint.Launch) bool)) error {
		read(func(u *checkpoint.Unit, l *checkpoint.Launch) bool {
			take(u, l)
			return true
		})
		return nil
	}
}

// imageDigest fingerprints an image's page numbers and contents.
func imageDigest(img *mem.Image) [sha256.Size]byte {
	h := sha256.New()
	img.VisitPages(func(num uint64, data *[mem.PageSize]byte) {
		h.Write(binary.LittleEndian.AppendUint64(nil, num))
		h.Write(data[:])
	})
	return [sha256.Size]byte(h.Sum(nil))
}

// FuzzStreamedLoad installs mutated entries in a store and reads each
// with both readers: Store.Load, which decodes the whole set before
// anyone sees a unit, and Store.Stream, which hands out each unit's
// launch state as it reads and rolls one Materializer over buffers it
// reuses. They must agree: both miss, or both hit with the same units —
// header, arch state, and materialized memory and warm state, unit by
// unit — and the same sweep totals. Neither may panic, and each must
// allocate in proportion to the entry (checkDecodeAlloc; Stream's count
// leaves out what its consumer here allocates to copy the launches).
func FuzzStreamedLoad(f *testing.F) {
	key, wire, partial, tampered := fuzzWire(f)
	pageLen, unitLen := corruptLengths(f, wire, key)
	f.Add(wire)
	f.Add(wire[:len(wire)/2])
	f.Add(wire[:len(wire)-9])
	f.Add(partial)
	f.Add([]byte{})
	f.Add(tampered)
	f.Add(pageLen)
	f.Add(unitLen)
	store, err := checkpoint.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(store.Dir(), key.Hash()+".ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			set *checkpoint.Set
			err error
		)
		got := allocated(func() { set, err = store.Load(key) })
		checkDecodeAlloc(t, "Load", got, len(data))
		if err != nil {
			t.Fatalf("Load of a readable entry failed: %v", err)
		}
		var (
			streamed []launchCopy
			sum      *checkpoint.Summary
			copied   uint64
		)
		got = allocated(func() {
			sum, err = store.Stream(context.Background(), key, readAll(func(u *checkpoint.Unit, l *checkpoint.Launch) {
				copied += allocated(func() { streamed = append(streamed, copyLaunch(u, l)) })
			}))
		})
		checkDecodeAlloc(t, "Stream", got-copied, len(data))
		if err != nil {
			t.Fatalf("Stream of a readable entry failed: %v", err)
		}
		if (set == nil) != (sum == nil) {
			t.Fatalf("Load hit %v, Stream hit %v", set != nil, sum != nil)
		}
		if set == nil {
			return
		}
		if sum.Captured != len(set.Units) || len(streamed) != len(set.Units) ||
			sum.PopulationUnits != set.PopulationUnits || sum.SweepInsts != set.SweepInsts {
			t.Fatalf("Stream read %d units (%d handed out), %d/%d; Load %d units, %d/%d",
				sum.Captured, len(streamed), sum.PopulationUnits, sum.SweepInsts,
				len(set.Units), set.PopulationUnits, set.SweepInsts)
		}
		var m checkpoint.Materializer
		for i, u := range set.Units {
			l, err := m.Materialize(u)
			if err != nil {
				t.Fatalf("unit %d of a loaded set does not materialize: %v", i, err)
			}
			if got, want := streamed[i], copyLaunch(u, l); !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d: the streamed launch differs from the loaded one", i)
			}
		}
	})
}
