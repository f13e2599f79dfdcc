package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Store file format: an 8-byte magic, a little-endian uint32 format
// version, a length-prefixed gob-encoded storeManifest, then a sequence
// of raw little-endian records (see codec.go) terminated by an End
// record carrying the sweep totals. Files whose magic, version, or
// manifest key do not match the request are treated as misses (never as
// errors), so bumping storeVersion — or any change to the key
// derivation — safely invalidates every existing checkpoint file.
// Entries are uncompressed by design: loading must beat re-sweeping,
// and the dominant payloads (tag arrays, LRU stamps, memory pages) are
// cheap to rewrite but expensive to push through a codec.
//
// Exactly one version is readable: the one the writer emits. The store
// is a cache, so an entry (or partial journal) stamped with any other
// version — the unsealed formats 1–3 of earlier releases included — is
// a miss that the next commit of its key overwrites; Verify reports it.
//
// Version 4, the current format: unit records carry a memory-encoding
// kind (full/delta) and a warm-encoding kind (none/full/delta). Delta
// units list only the pages dirtied since the preceding unit (mem.Delta
// from the dirty-page journal) and dirty-block warm deltas, each with
// its serialized grain, chained off the preceding full "keyframe" unit;
// memory and warm state keyframe together. A keyframe index record
// before the End record enumerates the keyframe ordinals so truncated
// or spliced chains are detected at load. Every entry is sealed with a
// CRC-32C: the codec primitives fold each record byte into a running
// checksum (codec.go) and the end record is followed by the writer's
// final sum as a trailing uint64. Resume frames in partial journals
// seal their cumulative prefix the same way (resume.go). The magic and
// version themselves stay outside the sum — they are validated
// byte-for-byte instead. Structural validation catches truncation and
// splicing; the checksum closes the remaining gap — single-bit rot
// inside an opaque payload (a 4KiB page, a predictor table) that still
// parses. Corruption anywhere — including mid-chain — degrades to a
// miss.
const (
	storeVersion = 4
	storeExt     = ".ckpt"
)

var storeMagic = [8]byte{'S', 'M', 'R', 'T', 'C', 'K', 'P', 'T'}

// Key identifies one captured Set on disk. Two runs share a key — and
// therefore a functional sweep — exactly when they execute the same
// workload under the same sampling geometry and the same warm-relevant
// machine shape. Timing, pipeline-width, and energy parameters are
// deliberately excluded: they change what the detailed replay measures,
// not what the sweep captures, so machine configs differing only in
// those reuse one sweep. So are the execution knobs (Keyframe, OnFrame,
// Resume): the sweep is serial and every way of running it captures
// the same launch states.
//
//simlint:keystruct String
type Key struct {
	// Workload is the program name; ProgramHash fingerprints its exact
	// code, initial image, entry, and length, so regenerating a workload
	// differently invalidates its checkpoints.
	Workload    string
	ProgramHash string
	// U, W, K, Offsets, and MaxUnits fix the launch boundaries.
	U, W, K  uint64
	Offsets  []uint64
	MaxUnits int
	// FunctionalWarm, Components, and WarmSig fix what the sweep warms
	// and the geometry of the warmed structures. WarmSig is empty for
	// cold captures, which therefore reuse across every machine config.
	FunctionalWarm bool
	Components     uarch.WarmComponents
	WarmSig        string
}

// KeyFor derives the store key for capturing prog with p on cfg.
func KeyFor(prog *program.Program, cfg uarch.Config, p Params) Key {
	k := Key{
		Workload:       prog.Name,
		ProgramHash:    programHash(prog),
		U:              p.U,
		W:              p.W,
		K:              p.K,
		Offsets:        p.offsets(),
		MaxUnits:       p.MaxUnits,
		FunctionalWarm: p.FunctionalWarm,
	}
	if p.FunctionalWarm {
		k.Components = uarch.AllComponents
		if p.Components != nil {
			k.Components = *p.Components
		}
		k.WarmSig = WarmSignature(cfg)
	}
	return k
}

// WarmSignature summarizes the machine-config fields a functional sweep
// depends on: cache, TLB, and predictor geometry. Configs with equal
// signatures observe identical warm state from one stream, so their
// checkpoints are interchangeable.
func WarmSignature(cfg uarch.Config) string {
	return fmt.Sprintf("il1=%dx%db%d dl1=%dx%db%d l2=%dx%db%d itlb=%d dtlb=%d tlbw=%d bp=%d/%d/%dx%d/%d",
		cfg.IL1.Sets, cfg.IL1.Ways, cfg.IL1.BlockBits,
		cfg.DL1.Sets, cfg.DL1.Ways, cfg.DL1.BlockBits,
		cfg.L2.Sets, cfg.L2.Ways, cfg.L2.BlockBits,
		cfg.ITLBEntries, cfg.DTLBEntries, cfg.TLBWays,
		cfg.BPred.TableEntries, cfg.BPred.HistoryBits,
		cfg.BPred.BTBSets, cfg.BPred.BTBWays, cfg.BPred.RASEntries)
}

// programHash fingerprints the program via its canonical serialization.
func programHash(prog *program.Program) string {
	h := sha256.New()
	if err := prog.Save(h); err != nil {
		// Save into a hash cannot fail for a valid program; fall back to
		// a name-only fingerprint that still keys distinct workloads.
		return "unsaved:" + prog.Name
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// String renders the canonical key text the content address is derived
// from.
func (k Key) String() string {
	return fmt.Sprintf("%s@%s u=%d w=%d k=%d j=%v max=%d warm=%v comp=%+v sig=%q",
		k.Workload, k.ProgramHash, k.U, k.W, k.K, k.Offsets, k.MaxUnits,
		k.FunctionalWarm, k.Components, k.WarmSig)
}

// Hash returns the content address: the hex SHA-256 of the canonical
// key text, truncated to 32 characters for filename friendliness.
func (k Key) Hash() string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])[:32]
}

// Store is an on-disk checkpoint cache: captured Sets keyed by Key,
// one file per key under dir. All methods are safe for concurrent use;
// writers stage into a temp file and commit with an atomic rename.
type Store struct {
	dir string

	// Logf, when set, receives one line per store event (hit, miss,
	// save, discard) so sweep reuse is observable from the CLIs.
	Logf func(format string, args ...any)

	// MaxBytes, when positive, caps the total size of committed entries:
	// each commit evicts least-recently-used entries (per the index's
	// LastUsed, refreshed on hits) until the store fits. Set it before
	// sharing the store across goroutines. See index.go.
	MaxBytes int64

	mu           sync.Mutex
	hits, misses uint64
}

// OpenStore opens (creating if needed) a checkpoint store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the lifetime hit/miss counts.
func (s *Store) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Log emits one line through Logf when set, so logging stays optional.
func (s *Store) Log(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+storeExt)
}

// Contains reports whether a committed entry file exists for k. It does
// not validate the entry (Load still treats corruption as a miss); the
// sim session's sweep deduplication uses it to decide whether a just-
// finished concurrent sweep left a reusable entry behind.
func (s *Store) Contains(k Key) bool {
	_, err := os.Stat(s.path(k))
	return err == nil
}

func (s *Store) countHit(hit bool) {
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
}

// storeManifest opens a checkpoint file; the embedded key guards
// against hash collisions and stale derivations.
type storeManifest struct {
	Key             Key
	PopulationUnits uint64
}

// readManifest decodes the length-prefixed gob manifest that follows
// the file header.
func readManifest(cr *codecReader) (*storeManifest, error) {
	blob, err := cr.bytes()
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var man storeManifest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &man, nil
}

// Load returns the Set stored under k, or nil when the store has no
// usable entry (absent, format-version mismatch, key mismatch, or
// corruption — all count as misses; corruption is logged). The returned
// Set's SweepInsts/SweepTime echo the original sweep's cost; the caller
// decides how to account for having skipped it.
//
//simlint:noctx bounded single-file read; a hit is far cheaper than the sweep it replaces
func (s *Store) Load(k Key) (*Set, error) {
	path := s.path(k)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.countHit(false)
			s.Log("checkpoint store: miss %s (%s)", k.Hash(), k.Workload)
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: store load: %w", err)
	}
	defer f.Close()

	set, err := readSet(f, k)
	if err != nil {
		s.countHit(false)
		s.Log("checkpoint store: discarding unusable entry %s: %v", filepath.Base(path), err)
		return nil, nil
	}
	s.countHit(true)
	s.noteUse(k.Hash())
	s.Log("checkpoint store: hit %s (%s: %d units, %d sweep insts reused)",
		k.Hash(), k.Workload, len(set.Units), set.SweepInsts)
	return set, nil
}

// readHeader consumes the magic, version, and manifest of an entry or
// a partial journal, returning the codec reader positioned at the first
// record. The magic and version are read directly (outside the CRC), so
// the checksum covers exactly the bytes the codec primitives produced.
func readHeader(r io.Reader) (*codecReader, *storeManifest, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("short header: %w", err)
	}
	if magic != storeMagic {
		return nil, nil, fmt.Errorf("bad magic %q", magic[:])
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, nil, err
	}
	if version != storeVersion {
		return nil, nil, fmt.Errorf("format version %d, want %d", version, storeVersion)
	}
	cr := newCodecReader(r)
	man, err := readManifest(cr)
	if err != nil {
		return nil, nil, err
	}
	return cr, man, nil
}

func readSet(r io.Reader, k Key) (*Set, error) {
	cr, man, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if man.Key.String() != k.String() {
		return nil, fmt.Errorf("key mismatch: stored %s", man.Key)
	}
	return readRecords(cr, man)
}

// readRecords decodes the record stream of a committed entry whose
// header was already consumed by readHeader.
func readRecords(cr *codecReader, man *storeManifest) (*Set, error) {
	set := &Set{K: man.Key.K, PopulationUnits: man.PopulationUnits}
	var pages []*[mem.PageSize]byte
	var prev *Unit        // previously decoded unit (the delta chain predecessor)
	var geom warmGeom     // geometry established by the last keyframe
	var keyframes []int64 // ordinals of keyframe units, for index validation
	var keyIdx []uint64   // the file's keyframe index record, when present
	sawKeyIdx := false
	for {
		tag, err := cr.u64()
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		switch tag {
		case recPage:
			page, err := cr.bytes()
			if err != nil {
				return nil, err
			}
			if len(page) != mem.PageSize {
				return nil, fmt.Errorf("page record of %d bytes", len(page))
			}
			pages = append(pages, (*[mem.PageSize]byte)(page))
		case recUnit:
			u, err := cr.unit(pages, prev, &geom)
			if err != nil {
				return nil, err
			}
			// The keyframe index lists full-snapshot units: memory
			// keyframes (warm state keyframes with them).
			if u.Mem != nil {
				keyframes = append(keyframes, int64(len(set.Units)))
			}
			prev = u
			set.Units = append(set.Units, u)
		case recKeyIdx:
			if sawKeyIdx {
				return nil, fmt.Errorf("unexpected keyframe index record")
			}
			if keyIdx, err = cr.u64s(); err != nil {
				return nil, err
			}
			sawKeyIdx = true
		case recEnd:
			units, err := cr.u64()
			if err != nil {
				return nil, err
			}
			if units != uint64(len(set.Units)) {
				return nil, fmt.Errorf("truncated: %d of %d units", len(set.Units), units)
			}
			// The keyframe index must agree with the units actually
			// decoded; a mismatch means records were lost or spliced.
			if !sawKeyIdx {
				return nil, fmt.Errorf("missing keyframe index")
			}
			if len(keyIdx) != len(keyframes) {
				return nil, fmt.Errorf("keyframe index lists %d keyframes, decoded %d", len(keyIdx), len(keyframes))
			}
			for i, ord := range keyIdx {
				if ord != uint64(keyframes[i]) {
					return nil, fmt.Errorf("keyframe index mismatch at %d: %d vs %d", i, ord, keyframes[i])
				}
			}
			if set.SweepInsts, err = cr.u64(); err != nil {
				return nil, err
			}
			nanos, err := cr.u64()
			if err != nil {
				return nil, err
			}
			set.SweepTime = time.Duration(int64(nanos))
			// The trailing checksum seals every byte the codec read;
			// snapshot the running sum before consuming the field itself.
			expect := cr.sum()
			stored, err := cr.u64()
			if err != nil {
				return nil, fmt.Errorf("checksum: %w", err)
			}
			if uint32(stored) != expect {
				return nil, fmt.Errorf("checksum mismatch: stored %08x, computed %08x", uint32(stored), expect)
			}
			return set, nil
		default:
			return nil, fmt.Errorf("unknown record tag %d", tag)
		}
	}
}

// setEncoder writes one entry's byte stream (header, manifest, page and
// unit records, keyframe index, end record) to any io.Writer. It is the
// shared encoding core of the store's SetWriter and of EncodeSet, the
// wire form the distributed service ships sweeps with — both produce
// the identical byte stream.
type setEncoder struct {
	cw *codecWriter
	// table is the running reconstruction of the stream's current page
	// table (page number → array) and ids maps its arrays to their page-
	// record ids. Keyframes replace the table; deltas overlay it. Pages
	// the stream has replaced drop out, so the encoder's footprint stays
	// bounded by the live footprint — it must not pin the whole stream
	// in the pipelined engine — while pages shared copy-on-write across
	// any span of units are written exactly once (sharing is contiguous
	// in stream time).
	table    map[uint64]*[mem.PageSize]byte
	ids      map[*[mem.PageSize]byte]uint64
	nextPage uint64
	units    int
	// prevUnit is the last unit written: a delta unit is only encodable
	// as a delta when its chain predecessor is exactly this unit (the
	// reader rebuilds chains from record order). Units arriving out of
	// chain order — e.g. an offset sub-set whose deltas point at units
	// of other offsets — are materialized and written as full keyframes
	// instead.
	prevUnit *Unit
	// keyframes holds the ordinals of full-snapshot units for the
	// keyframe index record finish emits.
	keyframes []uint64
}

// newSetEncoder writes the header and manifest for an entry keyed by k
// and returns the encoder for its records.
func newSetEncoder(w io.Writer, k Key, pop uint64) (*setEncoder, error) {
	if _, err := w.Write(storeMagic[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(storeVersion)); err != nil {
		return nil, err
	}
	e := &setEncoder{
		cw:    newCodecWriter(w),
		table: make(map[uint64]*[mem.PageSize]byte),
		ids:   make(map[*[mem.PageSize]byte]uint64),
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(storeManifest{Key: k, PopulationUnits: pop}); err != nil {
		return nil, err
	}
	if err := e.cw.bytes(blob.Bytes()); err != nil {
		return nil, err
	}
	return e, nil
}

// SetWriter streams a capture into the store as units are emitted, so
// saving adds no memory footprint to the pipelined engine. Commit
// finalizes the entry atomically; Abort discards it. Exactly one of the
// two must be called.
type SetWriter struct {
	store *Store
	key   Key
	tmp   *os.File
	enc   *setEncoder
	err   error
}

// Writer stages a new store entry for k. pop is the workload's
// population size in units (Summary.PopulationUnits).
//
//simlint:noctx opens a staging temp file; writes stream under the caller's ctx
func (s *Store) Writer(k Key, pop uint64) (*SetWriter, error) {
	tmp, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store writer: %w", err)
	}
	w := &SetWriter{store: s, key: k, tmp: tmp}
	enc, err := newSetEncoder(tmp, k, pop)
	if err != nil {
		w.fail(err)
		return nil, w.err
	}
	w.enc = enc
	return w, nil
}

func (w *SetWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cleanup()
}

func (w *SetWriter) cleanup() {
	if w.tmp != nil {
		name := w.tmp.Name()
		w.tmp.Close()
		os.Remove(name)
		w.tmp = nil
	}
}

// page ensures data has a page record, writing one on first sight, and
// returns its id.
func (e *setEncoder) page(data *[mem.PageSize]byte) (uint64, error) {
	if id, ok := e.ids[data]; ok {
		return id, nil
	}
	id := e.nextPage
	e.nextPage++
	if err := e.cw.u64(recPage); err != nil {
		return 0, err
	}
	if err := e.cw.bytes(data[:]); err != nil {
		return 0, err
	}
	e.ids[data] = id
	return id, nil
}

// add appends one unit's records.
//
// A unit is written as a delta exactly when it carries a memory delta
// extending the previously written unit — the only chain shape the
// reader can rebuild from record order. Anything else (keyframes,
// out-of-order units from an offset sub-set) is materialized and
// written as a full keyframe.
func (e *setEncoder) add(u *Unit) error {
	if u.MemDelta != nil && u.Warm == nil && u.Prev == e.prevUnit && e.prevUnit != nil {
		// Chain-aligned delta unit: write only the dirty pages.
		nums := u.MemDelta.Nums
		refs := make([]uint64, len(nums))
		for i, data := range u.MemDelta.Pages {
			id, err := e.page(data)
			if err != nil {
				return err
			}
			refs[i] = id
			if old, ok := e.table[nums[i]]; ok && old != data {
				delete(e.ids, old)
			}
			e.table[nums[i]] = data
		}
		if err := e.cw.u64(recUnit); err != nil {
			return err
		}
		if err := e.cw.unit(u, memDelta, nums, refs, nil, u.Delta); err != nil {
			return err
		}
		e.prevUnit = u
		e.units++
		return nil
	}

	// Full keyframe: the unit's own snapshots, or — for delta units that
	// cannot extend the written chain — their materialization.
	img, warm := u.Mem, u.Warm
	if img == nil || (u.Warm == nil && u.Delta != nil) {
		launch, err := u.Materialize()
		if err != nil {
			return err
		}
		img, warm = launch.Mem, launch.Warm
	}
	var nums, refs []uint64
	var encErr error
	table := make(map[uint64]*[mem.PageSize]byte, img.PageCount())
	ids := make(map[*[mem.PageSize]byte]uint64, img.PageCount())
	img.VisitPages(func(num uint64, data *[mem.PageSize]byte) {
		if encErr != nil {
			return
		}
		id, err := e.page(data)
		if err != nil {
			encErr = err
			return
		}
		table[num] = data
		ids[data] = id
		nums = append(nums, num)
		refs = append(refs, id)
	})
	if encErr != nil {
		return encErr
	}
	// Replace the running table: pages the stream no longer maps drop
	// their ids, keeping the dedup window at the live footprint.
	e.table, e.ids = table, ids
	if err := e.cw.u64(recUnit); err != nil {
		return err
	}
	if err := e.cw.unit(u, memFull, nums, refs, warm, nil); err != nil {
		return err
	}
	e.keyframes = append(e.keyframes, uint64(e.units))
	e.prevUnit = u
	e.units++
	return nil
}

// finish seals the record stream with the keyframe index, the end
// record carrying the sweep totals, and a flush of the encoder's
// buffer.
func (e *setEncoder) finish(sweepInsts uint64, sweepTime time.Duration) error {
	if err := e.cw.u64(recKeyIdx); err != nil {
		return err
	}
	if err := e.cw.u64s(e.keyframes); err != nil {
		return err
	}
	for _, v := range []uint64{recEnd, uint64(e.units), sweepInsts, uint64(int64(sweepTime))} {
		if err := e.cw.u64(v); err != nil {
			return err
		}
	}
	// Seal the entry: snapshot the running CRC before writing the field,
	// so the reader's pre-field snapshot computes the same sum.
	if err := e.cw.u64(uint64(e.cw.sum())); err != nil {
		return err
	}
	return e.cw.w.Flush()
}

// Add appends one unit. Errors are sticky; after the first, Add becomes
// a no-op returning the same error, and Commit will refuse. See
// setEncoder.add for the delta-versus-keyframe discipline.
func (w *SetWriter) Add(u *Unit) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.add(u); err != nil {
		w.fail(err)
	}
	return w.err
}

// Commit seals the entry with the sweep totals and atomically installs
// it under the key's content address.
func (w *SetWriter) Commit(sweepInsts uint64, sweepTime time.Duration) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.finish(sweepInsts, sweepTime); err != nil {
		w.fail(err)
		return w.err
	}
	name := w.tmp.Name()
	if err := w.tmp.Close(); err != nil {
		w.tmp = nil
		os.Remove(name)
		w.err = err
		return err
	}
	w.tmp = nil
	final := w.store.path(w.key)
	if err := os.Rename(name, final); err != nil {
		os.Remove(name)
		w.err = err
		return err
	}
	w.store.Log("checkpoint store: saved %s (%s: %d units)", w.key.Hash(), w.key.Workload, w.enc.units)
	w.store.noteCommit(w.key.Hash(), w.key.String(), w.enc.units)
	return nil
}

// Abort discards the staged entry.
func (w *SetWriter) Abort() {
	w.cleanup()
	if w.err == nil {
		w.err = fmt.Errorf("checkpoint: store write aborted")
	}
}

// Save writes an already-collected Set under k (the streaming path uses
// Writer directly).
func (s *Store) Save(k Key, set *Set) error {
	w, err := s.Writer(k, set.PopulationUnits)
	if err != nil {
		return err
	}
	for _, u := range set.Units {
		if err := w.Add(u); err != nil {
			return err
		}
	}
	return w.Commit(set.SweepInsts, set.SweepTime)
}
