package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Store file format: an 8-byte magic, a little-endian uint32 format
// version, a length-prefixed gob-encoded storeManifest, then a sequence
// of raw little-endian records (see codec.go) terminated by an End
// record carrying the sweep totals. A sweep writes one such stream,
// which has two endings: cut after a resume frame it is the key's
// partial journal (<hash>.partial, resume.go); continued to the End
// record it is the committed entry (<hash>.ckpt). A committed entry may
// therefore carry frame records among its units — the journal it was
// before it committed. Entries saved whole (Store.Save, EncodeSet)
// carry none and are byte-for-byte what earlier releases wrote; an
// earlier release reads an entry with frames as a miss. Files whose
// magic, version, or manifest key do not match the request are treated
// as misses (never as errors), so bumping storeVersion — or any change
// to the key derivation — safely invalidates every existing checkpoint
// file.
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
// final sum as a trailing uint64. Resume frames seal their cumulative
// prefix the same way, and a reader verifies every frame it passes. The
// magic and version themselves stay outside the sum — they are
// validated byte-for-byte instead. Structural validation catches
// truncation and splicing; the checksum closes the remaining gap —
// single-bit rot inside an opaque payload (a 4KiB page, a predictor
// table) that still parses. Corruption anywhere — including mid-chain —
// degrades to a miss.
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
	// each commit evicts least-recently-used entries until the store
	// fits. An entry's recency is its file's mtime, which a Load hit sets
	// to now. Set it before sharing the store across goroutines.
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
	// Mark the entry used for MaxBytes eviction. Best-effort: when a
	// read-only store or a concurrent eviction refuses, the hit stands.
	now := time.Now() //simlint:ordered LRU recency stamp; never read by the sweep
	if err := os.Chtimes(path, now, now); err != nil {
		s.Log("checkpoint store: recency of %s not updated: %v", k.Hash(), err)
	}
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

// readKeyed consumes the header of an entry or partial journal that
// must be stored under k.
func readKeyed(r io.Reader, k Key) (*codecReader, *storeManifest, error) {
	cr, man, err := readHeader(r)
	if err != nil {
		return nil, nil, err
	}
	if man.Key.String() != k.String() {
		return nil, nil, fmt.Errorf("key mismatch: stored %s", man.Key)
	}
	return cr, man, nil
}

func readSet(r io.Reader, k Key) (*Set, error) {
	cr, man, err := readKeyed(r, k)
	if err != nil {
		return nil, err
	}
	set, _, err := scanRecords(cr, man)
	return set, err
}

// scanRecords is the one reader of a sweep's record stream, whose
// header readHeader consumed. It returns the committed Set when the
// stream reaches a valid end record, and in any case the state at the
// last valid frame (nil when it passed none) and the defect that
// stopped it (nil at a valid end). A committed entry must reach its end
// with no defect; a partial journal keeps the last frame before one,
// because it is a prefix of a crashed write. Frames and the end record
// alike must describe exactly the units decoded before them — count and
// keyframe ordinals, or records were lost or spliced — and must match
// their CRC seal over the whole prefix, so nothing past a defect is
// ever trusted.
func scanRecords(cr *codecReader, man *storeManifest) (set *Set, last *ResumeState, err error) {
	var (
		pages     []*[mem.PageSize]byte
		units     []*Unit
		prev      *Unit     // previously decoded unit (the delta chain predecessor)
		geom      warmGeom  // geometry established by the last keyframe
		keyframes []uint64  // ordinals of keyframe units, for index validation
		vals      [5]uint64 // a frame's or end record's scalar fields
	)
	// sealed checks a frame or end record, whose fields are read up to its
	// seal, against the decoded units, then reads and verifies the seal:
	// the running sum is snapshot before the field itself is consumed.
	sealed := func(captured uint64, keyIdx []uint64) error {
		if captured != uint64(len(units)) {
			return fmt.Errorf("record covers %d units, decoded %d", captured, len(units))
		}
		if !slices.Equal(keyIdx, keyframes) {
			return fmt.Errorf("keyframe index lists %d keyframes, decoded %d", len(keyIdx), len(keyframes))
		}
		expect := cr.sum()
		stored, err := cr.u64()
		if err != nil {
			return fmt.Errorf("checksum: %w", err)
		}
		if uint32(stored) != expect {
			return fmt.Errorf("checksum mismatch: stored %08x, computed %08x", uint32(stored), expect)
		}
		return nil
	}
	readVals := func(n int) (err error) {
		for i := range vals[:n] {
			if vals[i], err = cr.u64(); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		tag, err := cr.u64()
		if err != nil {
			return nil, last, fmt.Errorf("record: %w", err)
		}
		switch tag {
		case recPage:
			page, err := cr.bytes()
			if err != nil {
				return nil, last, err
			}
			if len(page) != mem.PageSize {
				return nil, last, fmt.Errorf("page record of %d bytes", len(page))
			}
			pages = append(pages, (*[mem.PageSize]byte)(page))
		case recUnit:
			u, err := cr.unit(pages, prev, &geom)
			if err != nil {
				return nil, last, err
			}
			// The keyframe index lists full-snapshot units: memory
			// keyframes (warm state keyframes with them).
			if u.Mem != nil {
				keyframes = append(keyframes, uint64(len(units)))
			}
			prev = u
			units = append(units, u)
		case recFrame:
			// Captured, sweep position, sweep time, fetch-block flag and
			// block, then the keyframe ordinals so far (setEncoder.frame).
			if err := readVals(5); err != nil {
				return nil, last, err
			}
			keyIdx, err := cr.u64s()
			if err != nil {
				return nil, last, err
			}
			if err := sealed(vals[0], keyIdx); err != nil {
				return nil, last, fmt.Errorf("frame: %w", err)
			}
			last = &ResumeState{
				Units:           units[:len(units):len(units)],
				PopulationUnits: man.PopulationUnits,
				SweepInsts:      vals[1],
				SweepTime:       time.Duration(int64(vals[2])),
				HaveIBlock:      vals[3] != 0,
				LastIBlock:      vals[4],
			}
		case recKeyIdx:
			// The keyframe index, then the end record: its tag, the unit
			// count and the sweep totals (setEncoder.finish).
			keyIdx, err := cr.u64s()
			if err != nil {
				return nil, last, err
			}
			if err := readVals(4); err != nil {
				return nil, last, err
			}
			if vals[0] != recEnd {
				return nil, last, fmt.Errorf("keyframe index followed by record tag %d", vals[0])
			}
			if err := sealed(vals[1], keyIdx); err != nil {
				return nil, last, fmt.Errorf("end: %w", err)
			}
			return &Set{
				K:               man.Key.K,
				PopulationUnits: man.PopulationUnits,
				Units:           units,
				SweepInsts:      vals[2],
				SweepTime:       time.Duration(int64(vals[3])),
			}, last, nil
		default:
			return nil, last, fmt.Errorf("unknown record tag %d", tag)
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

// frame appends one recFrame record sealing the units written so far:
// the resume frame's scalars plus the keyframe ordinals accumulated to
// this point — the same index the end record's recKeyIdx carries,
// validated by the reader against the units it actually decoded.
func (e *setEncoder) frame(fr ResumeFrame) error {
	have := uint64(0)
	if fr.HaveIBlock {
		have = 1
	}
	for _, v := range []uint64{recFrame, uint64(fr.Captured), fr.SweepInsts,
		uint64(int64(fr.SweepTime)), have, fr.LastIBlock} {
		if err := e.cw.u64(v); err != nil {
			return err
		}
	}
	if err := e.cw.u64s(e.keyframes); err != nil {
		return err
	}
	// Seal the cumulative prefix under this frame. Each frame's checksum
	// covers every byte since the manifest — including earlier frames and
	// their checksums, which folded into the running sum as ordinary u64
	// fields — so a reader verifying frame n has verified the whole prefix
	// it would resume from.
	return e.cw.u64(uint64(e.cw.sum()))
}

// errFinished is the sticky state of a writer that committed or closed.
var errFinished = errors.New("checkpoint: store writer already finished")

// SetWriter streams a sweep into the store as its units are emitted, so
// saving adds no memory footprint to the pipelined engine, and is the
// sweep's crash journal on the way (engine.Journal). Its one file is
// staged as a temp file; the first Checkpoint seals the records so far
// under a frame and renames the file to the key's partial path, and
// later Checkpoints append and flush in place, so a crash at any byte
// leaves either no journal or one whose framed prefix is intact. Commit
// appends the trailer and renames the same file to the key's entry
// path; Close instead keeps an installed journal for a later resume and
// removes a file that never checkpointed. One of the two must be
// called, and errors are sticky: after the first, every call returns it
// and the writer has removed what it wrote.
type SetWriter struct {
	store *Store
	key   Key
	f     *os.File
	// id identifies f on disk, so the writer renames or removes a path
	// only while it still names this file and never a concurrent sweep's.
	id        os.FileInfo
	installed bool // f lives at the key's partial path (first Checkpoint)
	enc       *setEncoder
	err       error
}

// Writer stages a new store entry for k. pop is the workload's
// population size in units (Summary.PopulationUnits).
//
//simlint:noctx opens a staging temp file; writes stream under the caller's ctx
func (s *Store) Writer(k Key, pop uint64) (*SetWriter, error) {
	f, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store writer: %w", err)
	}
	w := &SetWriter{store: s, key: k, f: f}
	if w.id, err = f.Stat(); err == nil {
		w.enc, err = newSetEncoder(f, k, pop)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("checkpoint: store writer: %w", err)
	}
	return w, nil
}

// path is where the writer's file lives now.
func (w *SetWriter) path() string {
	if w.installed {
		return w.store.partialPath(w.key)
	}
	return w.f.Name()
}

// owns reports whether path still names the writer's file.
func (w *SetWriter) owns(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && os.SameFile(w.id, fi)
}

// fail records and logs the writer's first error and discards its
// file.
func (w *SetWriter) fail(err error) {
	if w.err == nil {
		w.err = err
		w.store.Log("checkpoint store: writing %s failed: %v", w.key.Hash(), err)
	}
	w.discard()
}

// discard closes the writer's file and removes it while its path still
// names it: a journal from an earlier run that this writer never
// replaced, or a concurrent sweep's that replaced this one, stays
// usable.
func (w *SetWriter) discard() {
	if w.f == nil {
		return
	}
	w.f.Close()
	if name := w.path(); w.owns(name) {
		os.Remove(name)
	}
	w.f = nil
}

// Load returns the journal an interrupted sweep of this writer's key
// left in the store (Store.LoadPartial), nil when there is nothing to
// resume from; a read failure is logged and counts as a miss. The
// writer's own records stay staged apart from that journal until its
// first Checkpoint replaces it.
func (w *SetWriter) Load() *ResumeState {
	rs, err := w.store.LoadPartial(w.key)
	if err != nil {
		w.store.Log("checkpoint store: resume unavailable: %v", err)
		return nil
	}
	return rs
}

// Drop removes the journal Load returned, which failed resume
// validation with why. For use before the first Checkpoint (after it
// the key's journal is this writer's file).
func (w *SetWriter) Drop(why error) {
	w.store.Log("checkpoint store: dropping unusable partial %s: %v", w.key.Hash(), why)
	w.store.DropPartial(w.key)
}

// Add appends one unit. See setEncoder.add for the delta-versus-keyframe
// discipline.
func (w *SetWriter) Add(u *Unit) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.add(u); err != nil {
		w.fail(err)
	}
	return w.err
}

// Checkpoint makes the units added so far durable as the key's partial
// journal: it appends a frame sealing them under fr, flushes, and on
// the first call atomically installs the file under the key's partial
// path. fr must describe exactly the units added so far.
func (w *SetWriter) Checkpoint(fr ResumeFrame) error {
	if w.err != nil {
		return w.err
	}
	if fr.Captured != w.enc.units {
		w.fail(fmt.Errorf("checkpoint: frame at %d units, %d written", fr.Captured, w.enc.units))
		return w.err
	}
	if err := w.enc.frame(fr); err != nil {
		w.fail(err)
		return w.err
	}
	if err := w.enc.cw.w.Flush(); err != nil {
		w.fail(err)
		return w.err
	}
	if !w.installed {
		if err := os.Rename(w.f.Name(), w.store.partialPath(w.key)); err != nil {
			w.fail(err)
			return w.err
		}
		w.installed = true
	}
	return nil
}

// Commit seals the entry with the sweep totals and atomically renames
// the writer's file — staged, or installed as the journal — to the key's
// content address. A concurrent sweep of the key may have installed its
// own journal over this writer's; the partial path then names that
// sweep's unfinished file, so Commit fails rather than rename it. The
// committed entry supersedes every journal of the key, so Commit then
// removes whatever partial is left.
func (w *SetWriter) Commit(sweepInsts uint64, sweepTime time.Duration) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.finish(sweepInsts, sweepTime); err != nil {
		w.fail(err)
		return w.err
	}
	src := w.path()
	if !w.owns(src) {
		w.fail(fmt.Errorf("checkpoint: %s no longer names this sweep's file", filepath.Base(src)))
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
		return w.err
	}
	if err := os.Rename(src, w.store.path(w.key)); err != nil {
		w.fail(err)
		return w.err
	}
	w.f, w.err = nil, errFinished
	w.store.DropPartial(w.key)
	w.store.Log("checkpoint store: saved %s (%s: %d units)", w.key.Hash(), w.key.Workload, w.enc.units)
	if w.store.MaxBytes > 0 {
		w.store.evict(w.key.Hash() + storeExt)
	}
	return nil
}

// evict removes committed entries, least recently used first, until
// their total size fits s.MaxBytes. Recency is the file's mtime, with
// ties broken by name. The entry just committed, named keep, is never
// removed, so a single oversized sweep still lands for the run that paid
// for it. Only *.ckpt files count: journals, staging files and foreign
// files are neither counted nor removed.
func (s *Store) evict(keep string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths, err := filepath.Glob(filepath.Join(s.dir, "*"+storeExt))
	if err != nil {
		s.Log("checkpoint store: eviction scan failed: %v", err)
		return
	}
	var (
		entries []os.FileInfo
		total   int64
	)
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			entries = append(entries, st)
			total += st.Size()
		}
	}
	// Glob lists names in order, so the stable sort breaks mtime ties by
	// name.
	slices.SortStableFunc(entries, func(a, b os.FileInfo) int {
		return a.ModTime().Compare(b.ModTime())
	})
	for _, st := range entries {
		if total <= s.MaxBytes {
			break
		}
		if st.Name() == keep {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, st.Name())); err != nil && !os.IsNotExist(err) {
			s.Log("checkpoint store: evict %s failed: %v", st.Name(), err)
			continue
		}
		s.Log("checkpoint store: evicted %s (%d bytes, last used %s)",
			st.Name(), st.Size(), st.ModTime().Format(time.RFC3339))
		total -= st.Size()
	}
}

// Close ends a writer that will not commit: a journal a Checkpoint
// installed is flushed and kept for a later resume, and a file that
// never checkpointed is removed. After Commit, a failure or an earlier
// Close it does nothing.
func (w *SetWriter) Close() error {
	if w.f == nil {
		return nil
	}
	if !w.installed {
		w.discard()
		w.err = errFinished
		return nil
	}
	err := w.enc.cw.w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f, w.err = nil, errFinished
	if err != nil {
		w.store.Log("checkpoint store: closing partial %s failed: %v", w.key.Hash(), err)
		return err
	}
	w.store.Log("checkpoint store: journaled partial %s (%s: %d units)", w.key.Hash(), w.key.Workload, w.enc.units)
	return nil
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
