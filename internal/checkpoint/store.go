package checkpoint

import (
	"bufio"
	"bytes"
	"context"
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

	"repro/internal/freelist"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Store file format: an 8-byte magic, a little-endian uint32 format
// version, then a sequence of records: the manifest (a length-prefixed
// gob-encoded storeManifest), page and unit records (see codec.go), and
// an End record carrying the unit count and the sweep totals. A sweep
// writes one such stream, which has two endings: without its End record
// it is the key's partial journal (<hash>.partial, resume.go), and with
// it the committed entry (<hash>.ckpt). The writer's journal, EncodeSet
// and Store.Save produce the same bytes for the same units. Files whose
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
// version — formats 1–4 of earlier releases included — is a miss that
// the next commit of its key overwrites; Verify reports it.
//
// Version 5, the current format: every record is followed by its own
// CRC-32C, which starts from the CRC of the key's content address and
// the record's ordinal in the stream (the manifest, record 0, which
// names the key, from the ordinal alone). A reader trusts a record as
// soon as its seal checks out; a record reordered, dropped, or spliced
// in from another key's stream fails its seal even when its bytes are
// intact, and a truncated stream has no End record, whose unit count
// must also match the units read. The magic and version stay outside
// the seals — they are validated byte-for-byte instead. Unit records
// carry a memory-encoding kind (full/delta) and a warm-encoding kind
// (none/full/delta). Delta units list only the pages dirtied since the
// preceding unit (mem.Delta from the dirty-page journal) and dirty-block
// warm deltas, each with its serialized grain, chained off the
// preceding full "keyframe" unit; memory and warm state keyframe
// together. Every unit record also carries the sweep state a resume
// needs beyond the snapshots (the fetch block), so every unit is a
// resume point. Unit and End records keep a reserved time slot, written
// as 0 and ignored on read: an entry is a pure function of its key.
// Corruption anywhere — including single-bit rot inside an opaque
// payload (a 4KiB page, a predictor table) that still parses — degrades
// to a miss, or for a journal to the units before it.
const (
	storeVersion = 5
	storeExt     = ".ckpt"
)

var storeMagic = [8]byte{'S', 'M', 'R', 'T', 'C', 'K', 'P', 'T'}

// Key identifies one captured Set on disk. Two runs share a key — and
// therefore a functional sweep — exactly when they execute the same
// workload under the same sampling geometry and the same warm-relevant
// machine shape. Timing, pipeline-width, and energy parameters are
// deliberately excluded: they change what the detailed replay measures,
// not what the sweep captures, so machine configs differing only in
// those reuse one sweep. So are the execution knobs (Keyframe, Resume):
// the sweep is serial and every way of running it captures the same
// launch states.
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

// programHash fingerprints the program via its canonical serialization
// (Program.Digest, hashed once per program).
func programHash(prog *program.Program) string {
	d := prog.Digest()
	return hex.EncodeToString(d[:])[:16]
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

// readManifest decodes the manifest record that follows the file
// header, and seeds the seals of the records after it with its key.
func readManifest(cr *codecReader) (*storeManifest, error) {
	cr.begin()
	blob, err := cr.bytes(nil)
	if err == nil {
		err = cr.check()
	}
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var man storeManifest
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	cr.seed = keySeed(man.Key)
	return &man, nil
}

// Load returns the Set stored under k, or nil when the store has no
// usable entry (absent, format-version mismatch, key mismatch, or
// corruption — all count as misses; corruption is logged). The returned
// Set's SweepInsts echo the original sweep's extent; the caller decides
// how to account for having skipped it. Load is the reader for
// sets that are kept — CaptureSet, a run with a MemCache attached, the
// fleet coordinator — and decodes every unit before returning; a run
// that replays a hit once and keeps nothing streams it instead
// (Stream).
//
//simlint:noctx bounded single-file read; a hit is far cheaper than the sweep it replaces
func (s *Store) Load(k Key) (*Set, error) {
	f, err := s.open(k)
	if f == nil || err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := readSet(f, k)
	if !s.settle(k, err, set, 0) {
		return nil, nil
	}
	return set, nil
}

// Stream is the reader of a store hit that is replayed as it is read
// and kept by no one. It opens the entry stored under k and calls replay
// with read, the entry's unit stream; replay runs read once, on any
// goroutine, and returns once it is done with everything read handed
// out. read reads the entry record by record, rolls one Materializer
// along the delta chain — each unit's deltas applied once, in stream
// order, from buffers the next unit's decode overwrites — and calls
// emit for every unit with a header-only Unit (Index, Start, LaunchAt,
// Arch) and its launch state. The launch belongs to the reader and rolls
// on when emit returns, so emit must be done reading it by then; the
// header is the consumer's to keep. A false return from emit stops the
// read. The pages a launch shares copy-on-write live in the reader's
// arena (streamReader) until replay returns; the next read reuses them.
//
// Each unit reaches emit once its own record has verified, but before
// the End record shows the entry complete, so the consumer must hold
// back whatever it makes of them until Stream returns a hit: a non-nil
// Summary (Captured units, the original sweep's extent, Complete). The
// verdict is settled once, after replay returns, so it does not depend
// on how far the read got by then: the entry is a miss, counted and
// logged like Load's, when it is absent, fails to decode or to verify,
// or replay returned an error (whatever made it stop reading). A done
// ctx is returned, neither hit nor miss.
func (s *Store) Stream(ctx context.Context, k Key, replay func(read func(emit func(*Unit, *Launch) bool)) error) (*Summary, error) {
	f, err := s.open(k)
	if f == nil || err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		set     *Set
		n       int
		readErr = errors.New("entry not read")
	)
	rd := readers.Get(struct{}{})
	defer rd.put()
	replayErr := replay(func(emit func(*Unit, *Launch) bool) {
		var (
			cr  *codecReader
			man *storeManifest
		)
		rd.br.Reset(f)
		if cr, man, readErr = readKeyed(rd.br, k); readErr != nil {
			return
		}
		cr.scratch = rd.scratch
		defer func() { rd.scratch = cr.scratch }()
		set, readErr = scanRecords(cr, man, rd.buf, func(u *Unit) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			launch, err := rd.mat.advance(u)
			if err != nil {
				return err
			}
			if !emit(&Unit{Index: u.Index, Start: u.Start, LaunchAt: u.LaunchAt, Arch: u.Arch}, launch) {
				return errors.New("consumer stopped before the end record")
			}
			n++
			return nil
		})
	})
	if err := ctx.Err(); err != nil && (replayErr != nil || readErr != nil) {
		return nil, err
	}
	if replayErr != nil {
		readErr = fmt.Errorf("replay: %w", replayErr)
	}
	if !s.settle(k, readErr, set, n) {
		return nil, nil
	}
	return &Summary{
		PopulationUnits: set.PopulationUnits,
		SweepInsts:      set.SweepInsts,
		Captured:        n,
		Complete:        true,
	}, nil
}

// streamReader is what one streamed read (Stream) reuses from the
// last: the rolling launch state, the unit decode buffers, the entry's
// read buffer and the codec's scratch. The decode buffers include the
// page arena, the arrays the read's page records are decoded into: put
// keeps the first arenaPages for the next read, and a read with more
// pages allocates the rest.
type streamReader struct {
	mat     Materializer
	buf     *unitBuf
	br      *bufio.Reader
	scratch []byte
}

// arenaPages is the most page arrays a streamReader keeps between
// reads, 16 MiB: every suite entry fits, at 2M instructions (n = 400)
// as at 12M (k = 166); the largest is swimx 12M's 4013 pages. A larger
// entry allocates its excess pages on every hit. With 2·GOMAXPROCS
// readers listed, a process keeps at most 2·GOMAXPROCS·16 MiB of arenas.
const arenaPages = 4096

// readers keeps the state of ended streamed reads, so a store hit
// reseeds a Materializer and decodes keyframes into arrays an earlier
// hit sized instead of allocating its own.
var readers = freelist.New("store reader", func(struct{}) *streamReader {
	return &streamReader{buf: newUnitBuf(), br: bufio.NewReaderSize(nil, codecBufSize)}
})

// put drops everything the read left of its entry — position, page
// references, the last decoded unit, the file — and returns the reader
// to readers.
func (rd *streamReader) put() {
	rd.mat.Reset()
	rd.buf.reset()
	rd.br.Reset(nil)
	readers.Put(struct{}{}, rd)
}

// open opens the entry stored under k for a read. An absent entry is a
// miss, counted and logged here: a nil file with a nil error.
func (s *Store) open(k Key) (*os.File, error) {
	f, err := os.Open(s.path(k))
	if os.IsNotExist(err) {
		s.countHit(false)
		s.Log("checkpoint store: miss %s (%s)", k.Hash(), k.Workload)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: store read: %w", err)
	}
	return f, nil
}

// settle counts and logs the verdict on an entry that was read (Load,
// Stream) and reports whether it is a hit: err, what made the entry
// unusable, is a miss; a hit is marked used for MaxBytes eviction. set
// is what the read decoded, holding its units (Load) or having handed
// out streamed of them (Stream).
func (s *Store) settle(k Key, err error, set *Set, streamed int) bool {
	path := s.path(k)
	if err != nil {
		s.countHit(false)
		s.Log("checkpoint store: discarding unusable entry %s: %v", filepath.Base(path), err)
		return false
	}
	s.countHit(true)
	s.touch(path, k)
	s.Log("checkpoint store: hit %s (%s: %d units, %d sweep insts reused)",
		k.Hash(), k.Workload, len(set.Units)+streamed, set.SweepInsts)
	return true
}

// touch marks the entry at path used, for MaxBytes eviction.
// Best-effort: when a read-only store or a concurrent eviction refuses,
// the hit stands.
func (s *Store) touch(path string, k Key) {
	now := time.Now() //simlint:ordered LRU recency stamp; never read by the sweep
	if err := os.Chtimes(path, now, now); err != nil {
		s.Log("checkpoint store: recency of %s not updated: %v", k.Hash(), err)
	}
}

// readHeader consumes the magic, version, and manifest of an entry or
// a partial journal, returning the codec reader positioned at the first
// record after the manifest. The magic and version are read directly,
// outside every seal.
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
	set, err := scanRecords(cr, man, nil, nil)
	if err != nil {
		return nil, err
	}
	return set, nil
}

// scanRecords is the one reader of a sweep's record stream, whose
// header readHeader consumed. It returns the Set of the units it
// verified — with the sweep totals, when the stream reached a valid End
// record — and the defect that stopped it (nil at a valid End). A
// committed entry must reach its End with no defect; a partial journal
// keeps the units before one, because it is a prefix of a crashed write
// and every unit is a resume point. Each record is verified against its
// own seal before anything is made of it, and the End record must count
// exactly the units read, so nothing at or past a defect is ever
// trusted.
//
// With emit nil every unit is kept in the Set. With emit set, each unit
// is handed to emit once verified and nothing is kept — the units are
// decoded into buf, which the next record overwrites (unitDecoder), and
// the Set has no Units — and an error from emit stops the scan and is
// returned as is. Either way a unit is checked against the plan the
// manifest keys (plausible) before anyone sees it.
func scanRecords(cr *codecReader, man *storeManifest, buf *unitBuf, emit func(*Unit) error) (*Set, error) {
	set := &Set{K: man.Key.K, PopulationUnits: man.PopulationUnits}
	dec := unitDecoder{buf: buf}
	if buf != nil {
		dec.pages = buf.pages[:0]
		defer func() { buf.pages = dec.pages }()
	}
	n := 0 // units verified
	for {
		cr.begin()
		tag, err := cr.u64()
		if err != nil {
			return set, fmt.Errorf("record: %w", err)
		}
		switch tag {
		case recPage:
			if err := dec.page(cr); err != nil {
				return set, err
			}
			if err := cr.check(); err != nil {
				return set, err
			}
		case recUnit:
			u, err := dec.unit(cr)
			if err != nil {
				return set, err
			}
			if err := cr.check(); err != nil {
				return set, err
			}
			if err := man.Key.plausible(u); err != nil {
				return set, err
			}
			dec.prev = u
			n++
			if emit == nil {
				set.Units = append(set.Units, u)
			} else if err := emit(u); err != nil {
				return set, err
			}
		case recEnd:
			// The unit count, sweep instructions and reserved slot (finish).
			var vals [3]uint64
			for i := range vals {
				if vals[i], err = cr.u64(); err != nil {
					return set, err
				}
			}
			if err := cr.check(); err != nil {
				return set, err
			}
			if vals[0] != uint64(n) {
				return set, fmt.Errorf("end record covers %d units, read %d", vals[0], n)
			}
			set.SweepInsts = vals[1]
			return set, nil
		default:
			return set, fmt.Errorf("unknown record tag %d", tag)
		}
	}
}

// plausible checks a decoded unit's stream positions against the plan
// the entry is keyed by: the unit starts at its index times U, and its
// launch point lies at most W before that. A unit is verified against
// its record's seal before anyone sees it, so only a writer at fault
// gets past the seal with an implausible unit; this check still bounds
// what such a unit can cost a reader that replays units before the End
// record arrives (Stream) — a detailed warming run of W instructions at
// most, not of the rest of the program.
func (k Key) plausible(u *Unit) error {
	if u.Start != u.Index*k.U || u.LaunchAt > u.Start || u.WarmLen() > k.W {
		return fmt.Errorf("unit %d: start %d and launch %d do not fit the plan (U=%d, W=%d)",
			u.Index, u.Start, u.LaunchAt, k.U, k.W)
	}
	return nil
}

// setEncoder writes one entry's byte stream (header, manifest, page and
// unit records, End record) to any io.Writer. It is the shared encoding
// core of the store's SetWriter and of EncodeSet, the wire form the
// distributed service ships sweeps with — both produce the identical
// byte stream.
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
	e.cw.begin()
	if err := e.cw.bytes(blob.Bytes()); err != nil {
		return nil, err
	}
	if err := e.cw.seal(); err != nil {
		return nil, err
	}
	e.cw.seed = keySeed(k)
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
	e.cw.begin()
	if err := e.cw.u64(recPage); err != nil {
		return 0, err
	}
	if err := e.cw.bytes(data[:]); err != nil {
		return 0, err
	}
	if err := e.cw.seal(); err != nil {
		return 0, err
	}
	e.ids[data] = id
	return id, nil
}

// record writes u's unit record (see codecWriter.unit).
func (e *setEncoder) record(u *Unit, memKind uint64, nums, refs []uint64, warm *WarmState, warmD *uarch.WarmDelta) error {
	e.cw.begin()
	if err := e.cw.u64(recUnit); err != nil {
		return err
	}
	if err := e.cw.unit(u, memKind, nums, refs, warm, warmD); err != nil {
		return err
	}
	if err := e.cw.seal(); err != nil {
		return err
	}
	e.prevUnit = u
	e.units++
	return nil
}

// add appends one unit's records and reports whether it wrote the unit
// as a keyframe.
//
// A unit is written as a delta exactly when it carries a memory delta
// extending the previously written unit — the only chain shape the
// reader can rebuild from record order. Anything else (keyframes,
// out-of-order units from an offset sub-set) is materialized and
// written as a full keyframe.
func (e *setEncoder) add(u *Unit) (keyframe bool, err error) {
	if u.MemDelta != nil && u.Warm == nil && u.Prev == e.prevUnit && e.prevUnit != nil {
		// Chain-aligned delta unit: write only the dirty pages.
		nums := u.MemDelta.Nums
		refs := make([]uint64, len(nums))
		for i, data := range u.MemDelta.Pages {
			id, err := e.page(data)
			if err != nil {
				return false, err
			}
			refs[i] = id
			if old, ok := e.table[nums[i]]; ok && old != data {
				delete(e.ids, old)
			}
			e.table[nums[i]] = data
		}
		return false, e.record(u, memDelta, nums, refs, nil, u.Delta)
	}

	// Full keyframe: the unit's own snapshots, or — for delta units that
	// cannot extend the written chain — their materialization.
	img, warm := u.Mem, u.Warm
	if img == nil || (u.Warm == nil && u.Delta != nil) {
		launch, err := u.Materialize()
		if err != nil {
			return false, err
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
		return false, encErr
	}
	// Replace the running table: pages the stream no longer maps drop
	// their ids, keeping the dedup window at the live footprint.
	e.table, e.ids = table, ids
	return true, e.record(u, memFull, nums, refs, warm, nil)
}

// finish ends the record stream with the End record — the unit count,
// sweep instructions and reserved 0 — and flushes the encoder's buffer.
func (e *setEncoder) finish(sweepInsts uint64) error {
	e.cw.begin()
	for _, v := range []uint64{recEnd, uint64(e.units), sweepInsts, 0} {
		if err := e.cw.u64(v); err != nil {
			return err
		}
	}
	if err := e.cw.seal(); err != nil {
		return err
	}
	return e.cw.w.Flush()
}

// errFinished is the sticky state of a writer that committed or closed.
var errFinished = errors.New("checkpoint: store writer already finished")

// SetWriter streams a sweep into the store as its units are emitted, so
// saving adds no memory footprint to the pipelined engine, and is the
// sweep's crash journal on the way (engine.Journal). Its one file is
// staged as a temp file until a keyframe finds it holding more units
// than the journal it replaces (the one Load returned, if any): Add then
// renames it to the key's partial path, and flushes it at every keyframe
// after that. Every record is sealed on its own, so a crash at any byte
// leaves a journal that resumes from its last whole unit. Commit
// appends the End record and renames the same file to the key's entry
// path; Close instead keeps the file as the key's journal when it holds
// more units than the one it replaces, and removes it otherwise. One of
// the two must be called, and errors are sticky: after the first, every
// call returns it and the writer has removed what it wrote.
type SetWriter struct {
	store *Store
	key   Key
	f     *os.File
	// id identifies f on disk, so the writer renames or removes a path
	// only while it still names this file and never a concurrent sweep's.
	id        os.FileInfo
	installed bool // f lives at the key's partial path
	replaces  int  // units of the journal f replaces (Load)
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
// writer's own records stay staged apart from that journal until they
// outnumber its units.
func (w *SetWriter) Load() *ResumeState {
	rs, err := w.store.LoadPartial(w.key)
	if err != nil {
		w.store.Log("checkpoint store: resume unavailable: %v", err)
		return nil
	}
	if rs != nil {
		w.replaces = len(rs.Units)
	}
	return rs
}

// Drop removes the journal Load returned, which failed resume
// validation with why. For use before the writer has added a unit
// (after that the key's journal may be this writer's file).
func (w *SetWriter) Drop(why error) {
	w.store.Log("checkpoint store: dropping unusable partial %s: %v", w.key.Hash(), why)
	w.store.DropPartial(w.key)
	w.replaces = 0
}

// Add appends one unit. See setEncoder.add for the delta-versus-keyframe
// discipline; a keyframe also journals the file (see SetWriter).
func (w *SetWriter) Add(u *Unit) error {
	if w.err != nil {
		return w.err
	}
	keyframe, err := w.enc.add(u)
	if err == nil && keyframe && w.enc.units > w.replaces {
		err = w.journal()
	}
	if err != nil {
		w.fail(err)
	}
	return w.err
}

// journal flushes the units added so far to the file and, the first
// time, installs the file under the key's partial path.
func (w *SetWriter) journal() error {
	if err := w.enc.cw.w.Flush(); err != nil {
		return err
	}
	if !w.installed {
		if err := os.Rename(w.f.Name(), w.store.partialPath(w.key)); err != nil {
			return err
		}
		w.installed = true
	}
	return nil
}

// Commit ends the entry with the End record and atomically renames
// the writer's file — staged, or installed as the journal — to the key's
// content address. A concurrent sweep of the key may have installed its
// own journal over this writer's; the partial path then names that
// sweep's unfinished file, so Commit fails rather than rename it. The
// committed entry supersedes every journal of the key, so Commit then
// removes whatever partial is left.
func (w *SetWriter) Commit(sweepInsts uint64) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.finish(sweepInsts); err != nil {
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

// Close ends a writer that will not commit: a file holding more units
// than the journal it replaces is flushed and kept, installed if it was
// not yet, as the key's journal for a later resume, and any other file
// is removed. After Commit, a failure or an earlier Close it does
// nothing.
func (w *SetWriter) Close() error {
	if w.f == nil {
		return nil
	}
	if w.enc.units <= w.replaces {
		w.discard()
		w.err = errFinished
		return nil
	}
	if err := w.journal(); err != nil {
		w.fail(err)
		return err
	}
	err := w.f.Close()
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
	return w.Commit(set.SweepInsts)
}
