package checkpoint

// Raw little-endian record codec for the checkpoint store. Snapshots
// are dominated by fixed-width arrays (cache tag/LRU arrays, predictor
// tables, 4KiB memory pages), so the store writes them as raw
// little-endian runs instead of a reflective encoding: loading a warm
// set must beat re-running the functional sweep even at small workload
// scales, and generic codecs (gob, even with fast compression) lose
// that race by an order of magnitude on these shapes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// Record tags.
const (
	recPage = 1 // one 4KiB page, referenced by arrival order
	recUnit = 2 // one captured unit, a resume point (resume.go)
	recEnd  = 3 // terminator carrying the unit count and the sweep totals
)

// Warm-state encodings inside a unit record.
const (
	warmNone  = 0 // cold capture: no warm state
	warmFull  = 1 // full snapshot (keyframe)
	warmDelta = 2 // dirty-block delta against the previous warm unit
)

// Memory encodings inside a unit record.
const (
	memFull  = 1 // full page table (keyframe)
	memDelta = 2 // dirty-page delta against the previous unit
)

// castagnoli is the CRC-32C polynomial table shared by the store
// checksums and the dist layer's wire digests. Castagnoli
// has hardware support on every platform Go targets seriously, so the
// checksum costs a fraction of the I/O it guards.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordSeal is where the CRC-32C of a stream's record ord starts: the
// CRC of ord's little-endian bytes under seed, the CRC of the stream's
// key hash (keySeed; 0 for the manifest, record 0, which names the key).
// A record that moved to another position, or into another key's
// stream, fails its seal even though its bytes are intact. The ordinal
// is staged in word, a buffer the caller owns: crc32.Update makes any
// slice it is given escape, so a local array would cost an allocation
// per record.
func recordSeal(seed uint32, ord uint64, word *[8]byte) uint32 {
	binary.LittleEndian.PutUint64(word[:], ord)
	return crc32.Update(seed, castagnoli, word[:])
}

// keySeed is the seal seed of the records of a stream keyed by k.
func keySeed(k Key) uint32 { return crc32.Checksum([]byte(k.Hash()), castagnoli) }

// codecWriter wraps the output stream with the scratch buffer the
// fixed-width runs are staged through. Every record byte flows through
// the five primitives below, which fold it into the record's CRC-32C;
// seal ends a record with its sum, so single-bit corruption anywhere in
// the payload — including inside a 4KiB page, which structural
// validation cannot see — surfaces as a decode error of that very
// record instead of a wrong result.
type codecWriter struct {
	w       *bufio.Writer
	scratch []byte
	word    [8]byte // begin's, seal's and u64's buffer: a local would escape through crc32.Update
	crc     uint32
	seed    uint32 // keySeed of the stream, once its manifest is written
	ord     uint64 // the ordinal of the record being written
}

func newCodecWriter(w io.Writer) *codecWriter {
	return &codecWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// begin starts the next record.
func (c *codecWriter) begin() { c.crc = recordSeal(c.seed, c.ord, &c.word) }

// seal ends the record begin started with its 4-byte CRC-32C.
func (c *codecWriter) seal() error {
	binary.LittleEndian.PutUint32(c.word[:4], c.crc)
	c.ord++
	_, err := c.w.Write(c.word[:4])
	return err
}

func (c *codecWriter) u64(v uint64) error {
	binary.LittleEndian.PutUint64(c.word[:], v)
	c.crc = crc32.Update(c.crc, castagnoli, c.word[:])
	_, err := c.w.Write(c.word[:])
	return err
}

func (c *codecWriter) u64s(v []uint64) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v) * 8
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], x)
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

func (c *codecWriter) u32s(v []uint32) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v) * 4
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], x)
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

func (c *codecWriter) bytes(v []byte) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, castagnoli, v)
	_, err := c.w.Write(v)
	return err
}

func (c *codecWriter) bools(v []bool) error {
	if err := c.u64(uint64(len(v))); err != nil {
		return err
	}
	need := len(v)
	if cap(c.scratch) < need {
		c.scratch = make([]byte, need)
	}
	buf := c.scratch[:need]
	for i, x := range v {
		if x {
			buf[i] = 1
		} else {
			buf[i] = 0
		}
	}
	c.crc = crc32.Update(c.crc, castagnoli, buf)
	_, err := c.w.Write(buf)
	return err
}

// codecReader mirrors codecWriter — including each record's CRC-32C
// over every byte read through the primitives. A length prefix is read
// before its record's seal can be checked, so no primitive allocates on
// its word: arrays grow only as their bytes arrive (fill), and a decode
// allocates in proportion to its input. maxLen bounds every prefix in
// BYTES of decoded payload, which keeps the size arithmetic in range.
type codecReader struct {
	r       *bufio.Reader
	scratch []byte
	word    [8]byte // begin's, check's and u64's buffer: a local would escape through io.ReadFull or crc32.Update
	crc     uint32
	seed    uint32
	ord     uint64
}

const maxLen = 1 << 28

// codecBufSize is the read buffer of a codecReader: an entry is read in
// 64 KB slices.
const codecBufSize = 1 << 16

// newCodecReader reads r through a codecBufSize buffer — r itself when
// it is already a buffered reader at least that large.
func newCodecReader(r io.Reader) *codecReader {
	return &codecReader{r: bufio.NewReaderSize(r, codecBufSize)}
}

// begin starts the next record.
func (c *codecReader) begin() { c.crc = recordSeal(c.seed, c.ord, &c.word) }

// check reads the seal of the record begin started and verifies it
// against the bytes read since.
func (c *codecReader) check() error {
	if _, err := io.ReadFull(c.r, c.word[:4]); err != nil {
		return fmt.Errorf("record %d seal: %w", c.ord, err)
	}
	if stored := binary.LittleEndian.Uint32(c.word[:4]); stored != c.crc {
		return fmt.Errorf("record %d seal mismatch: stored %08x, computed %08x", c.ord, stored, c.crc)
	}
	c.ord++
	return nil
}

func (c *codecReader) u64() (uint64, error) {
	if _, err := io.ReadFull(c.r, c.word[:]); err != nil {
		return 0, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, c.word[:])
	return binary.LittleEndian.Uint64(c.word[:]), nil
}

// length reads a count prefix whose elements are elemBytes wide each,
// rejecting counts whose decoded payload would exceed maxLen bytes.
func (c *codecReader) length(elemBytes int) (int, error) {
	n, err := c.u64()
	if err != nil {
		return 0, err
	}
	if n > maxLen/uint64(elemBytes) {
		return 0, fmt.Errorf("unreasonable length %d", n)
	}
	return int(n), nil
}

// fit returns dst resliced to n elements when its array can hold them,
// else a new slice of n. A nil dst always gets a new slice, so a decode
// that keeps what it reads owns exactly-sized arrays, while a reader
// that overwrites its buffers record after record passes them back in
// and stops allocating once they have grown.
func fit[T any](dst []T, n int) []T {
	if dst == nil || cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

// fillStep is the most fill allocates before any byte has arrived.
const fillStep = 1 << 16

// fill reads the next n bytes into dst's array (see fit) and folds them
// into the running sum. An array dst cannot hold grows as its bytes
// arrive — to fillStep, then to twice what has arrived — so a length
// past the end of the input costs at most 4x the bytes read + fillStep.
func (c *codecReader) fill(dst []byte, n int) ([]byte, error) {
	v := fit(dst, min(n, max(cap(dst), fillStep)))
	for got := 0; ; {
		if _, err := io.ReadFull(c.r, v[got:]); err != nil {
			return nil, err
		}
		if got = len(v); got == n {
			break
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, v)
		v = grown
	}
	c.crc = crc32.Update(c.crc, castagnoli, v)
	return v, nil
}

// raw reads the next n bytes into the scratch buffer (fill).
func (c *codecReader) raw(n int) ([]byte, error) {
	buf, err := c.fill(c.scratch, n)
	if err != nil {
		return nil, err
	}
	c.scratch = buf
	return buf, nil
}

// u64s reads a length-prefixed run into dst's array (see fit).
func (c *codecReader) u64s(dst []uint64) ([]uint64, error) {
	n, err := c.length(8)
	if err != nil {
		return nil, err
	}
	buf, err := c.raw(n * 8)
	if err != nil {
		return nil, err
	}
	v := fit(dst, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return v, nil
}

func (c *codecReader) u32s(dst []uint32) ([]uint32, error) {
	n, err := c.length(4)
	if err != nil {
		return nil, err
	}
	buf, err := c.raw(n * 4)
	if err != nil {
		return nil, err
	}
	v := fit(dst, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return v, nil
}

func (c *codecReader) bytes(dst []byte) ([]byte, error) {
	n, err := c.length(1)
	if err != nil {
		return nil, err
	}
	return c.fill(dst, n)
}

// page reads a page record's payload into p, once its length prefix
// is the page size.
func (c *codecReader) page(p *[mem.PageSize]byte) error {
	n, err := c.u64()
	if err == nil && n != mem.PageSize {
		err = fmt.Errorf("page record of %d bytes", n)
	}
	if err == nil {
		_, err = c.fill(p[:], mem.PageSize)
	}
	return err
}

func (c *codecReader) bools(dst []bool) ([]bool, error) {
	n, err := c.length(1)
	if err != nil {
		return nil, err
	}
	buf, err := c.raw(n)
	if err != nil {
		return nil, err
	}
	v := fit(dst, n)
	for i := range v {
		v[i] = buf[i] != 0
	}
	return v, nil
}

// writeCacheState emits one cache/TLB snapshot.
func (c *codecWriter) cacheState(s *cache.State) error {
	if err := c.u64(s.Stamp); err != nil {
		return err
	}
	if err := c.u64s(s.Tags); err != nil {
		return err
	}
	if err := c.bools(s.Valid); err != nil {
		return err
	}
	if err := c.bools(s.Dirty); err != nil {
		return err
	}
	return c.u64s(s.LastUsed)
}

// cacheState decodes one cache/TLB snapshot into s, reusing its arrays
// (see fit).
func (c *codecReader) cacheState(s *cache.State) error {
	var err error
	if s.Stamp, err = c.u64(); err != nil {
		return err
	}
	if s.Tags, err = c.u64s(s.Tags); err != nil {
		return err
	}
	if s.Valid, err = c.bools(s.Valid); err != nil {
		return err
	}
	if s.Dirty, err = c.bools(s.Dirty); err != nil {
		return err
	}
	if s.LastUsed, err = c.u64s(s.LastUsed); err != nil {
		return err
	}
	// The arrays are parallel: a snapshot whose lengths disagree would
	// pass a later delta's check (against len(Tags)) and then index past
	// a short array, so it is a decode error here.
	if n := len(s.Tags); len(s.Valid) != n || len(s.Dirty) != n || len(s.LastUsed) != n {
		return fmt.Errorf("cache snapshot arrays %d/%d/%d/%d differ in length",
			n, len(s.Valid), len(s.Dirty), len(s.LastUsed))
	}
	return nil
}

func (c *codecWriter) predState(s *bpred.State) error {
	for _, b := range [][]uint8{s.Bimodal, s.Gshare, s.Chooser} {
		if err := c.bytes(b); err != nil {
			return err
		}
	}
	if err := c.u64(s.History); err != nil {
		return err
	}
	for _, u := range [][]uint64{s.BTBTags, s.BTBTgts, s.BTBLRU, s.RAS} {
		if err := c.u64s(u); err != nil {
			return err
		}
	}
	if err := c.bools(s.BTBValid); err != nil {
		return err
	}
	if err := c.u64(s.BTBStamp); err != nil {
		return err
	}
	return c.u64(uint64(int64(s.RASTop)))
}

// predState decodes one predictor snapshot into s, reusing its arrays.
func (c *codecReader) predState(s *bpred.State) error {
	var err error
	if s.Bimodal, err = c.bytes(s.Bimodal); err != nil {
		return err
	}
	if s.Gshare, err = c.bytes(s.Gshare); err != nil {
		return err
	}
	if s.Chooser, err = c.bytes(s.Chooser); err != nil {
		return err
	}
	if s.History, err = c.u64(); err != nil {
		return err
	}
	if s.BTBTags, err = c.u64s(s.BTBTags); err != nil {
		return err
	}
	if s.BTBTgts, err = c.u64s(s.BTBTgts); err != nil {
		return err
	}
	if s.BTBLRU, err = c.u64s(s.BTBLRU); err != nil {
		return err
	}
	if s.RAS, err = c.u64s(s.RAS); err != nil {
		return err
	}
	if s.BTBValid, err = c.bools(s.BTBValid); err != nil {
		return err
	}
	if s.BTBStamp, err = c.u64(); err != nil {
		return err
	}
	top, err := c.u64()
	if err != nil {
		return err
	}
	s.RASTop = int(int64(top))
	// Bound the stack pointer and check the parallel arrays here so a
	// corrupt entry degrades to a load-time decode error (a store miss),
	// not a replay-time failure or an index past a short array when a
	// later delta is applied (Apply checks against len(Bimodal) and
	// len(BTBTags) only).
	if s.RASTop < 0 || s.RASTop > len(s.RAS) {
		return fmt.Errorf("RAS top %d out of range (%d entries)", s.RASTop, len(s.RAS))
	}
	if n := len(s.Bimodal); len(s.Gshare) != n || len(s.Chooser) != n {
		return fmt.Errorf("predictor tables %d/%d/%d differ in length", n, len(s.Gshare), len(s.Chooser))
	}
	if n := len(s.BTBTags); len(s.BTBTgts) != n || len(s.BTBLRU) != n || len(s.BTBValid) != n {
		return fmt.Errorf("BTB arrays %d/%d/%d/%d differ in length",
			n, len(s.BTBTgts), len(s.BTBLRU), len(s.BTBValid))
	}
	return nil
}

// unit emits the body of one unit record, whose tag the caller wrote:
// geometry, architectural state, a reserved slot (once a wall-clock
// sweep time; written as 0 and ignored on read), the sweep state a
// resume continues from (the fetch block), then memory and warm state.
// memKind selects the memory encoding of the nums/refs page table (full
// table or dirty-page delta); warm, when non-nil, is written as a full
// snapshot, warmD as a dirty-block delta, neither as a cold unit. The
// store writer resolves which combination a unit gets — including
// re-keyframing delta units whose predecessor is not the previously
// written unit (a chain the reader could not rebuild).
func (c *codecWriter) unit(u *Unit, memKind uint64, nums, refs []uint64, warm *WarmState, warmD *uarch.WarmDelta) error {
	for _, v := range []uint64{u.Index, u.Start, u.LaunchAt} {
		if err := c.u64(v); err != nil {
			return err
		}
	}
	arch := u.Arch
	if err := c.u64s(arch.Regs[:]); err != nil {
		return err
	}
	if err := c.u64(u.Arch.PC); err != nil {
		return err
	}
	if err := c.u64(u.Arch.Count); err != nil {
		return err
	}
	halted, have := uint64(0), uint64(0)
	if u.Arch.Halted {
		halted = 1
	}
	if u.HaveIBlock {
		have = 1
	}
	for _, v := range []uint64{halted, 0, have, u.LastIBlock, memKind} {
		if err := c.u64(v); err != nil {
			return err
		}
	}
	if err := c.u64s(nums); err != nil {
		return err
	}
	if err := c.u64s(refs); err != nil {
		return err
	}
	switch {
	case warm != nil:
		if err := c.u64(warmFull); err != nil {
			return err
		}
		return c.warmState(warm)
	case warmD != nil:
		if err := c.u64(warmDelta); err != nil {
			return err
		}
		return c.warmDelta(warmD)
	}
	return c.u64(warmNone)
}

// warmState emits one full warm snapshot.
func (c *codecWriter) warmState(w *WarmState) error {
	for _, s := range []*cache.State{
		w.Hier.IL1, w.Hier.DL1, w.Hier.L2,
		w.Hier.ITLB, w.Hier.DTLB,
	} {
		if err := c.cacheState(s); err != nil {
			return err
		}
	}
	return c.predState(w.Pred)
}

// cacheDelta emits one dirty-block cache/TLB delta (the grain is
// serialized, so stored chains survive granularity retuning).
func (c *codecWriter) cacheDelta(d *cache.Delta) error {
	if err := c.u64(uint64(d.N)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.Grain)); err != nil {
		return err
	}
	if err := c.u64(d.Stamp); err != nil {
		return err
	}
	if err := c.u32s(d.Blocks); err != nil {
		return err
	}
	if err := c.u64s(d.Tags); err != nil {
		return err
	}
	if err := c.bools(d.Valid); err != nil {
		return err
	}
	if err := c.bools(d.Dirty); err != nil {
		return err
	}
	return c.u64s(d.LastUsed)
}

// cacheDelta decodes one cache/TLB delta into d, reusing its arrays.
func (c *codecReader) cacheDelta(d *cache.Delta) error {
	n, err := c.u64()
	if err != nil {
		return err
	}
	if n > maxLen {
		return fmt.Errorf("unreasonable delta geometry %d", n)
	}
	d.N = int(n)
	grain, err := c.u64()
	if err != nil {
		return err
	}
	if grain > 30 {
		return fmt.Errorf("unreasonable delta grain %d", grain)
	}
	d.Grain = uint8(grain)
	if d.Stamp, err = c.u64(); err != nil {
		return err
	}
	if d.Blocks, err = c.u32s(d.Blocks); err != nil {
		return err
	}
	if d.Tags, err = c.u64s(d.Tags); err != nil {
		return err
	}
	if d.Valid, err = c.bools(d.Valid); err != nil {
		return err
	}
	if d.Dirty, err = c.bools(d.Dirty); err != nil {
		return err
	}
	d.LastUsed, err = c.u64s(d.LastUsed)
	return err
}

// predDelta emits one dirty-block predictor delta, grains included, so
// retuning the granularity never invalidates stored chains.
func (c *codecWriter) predDelta(d *bpred.Delta) error {
	if err := c.u64(uint64(d.N)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.BTBN)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.TblGrain)); err != nil {
		return err
	}
	if err := c.u64(uint64(d.BTBGrain)); err != nil {
		return err
	}
	if err := c.u32s(d.TblBlocks); err != nil {
		return err
	}
	for _, b := range [][]uint8{d.Bimodal, d.Gshare, d.Chooser} {
		if err := c.bytes(b); err != nil {
			return err
		}
	}
	if err := c.u64(d.History); err != nil {
		return err
	}
	if err := c.u32s(d.BTBBlocks); err != nil {
		return err
	}
	for _, u := range [][]uint64{d.BTBTags, d.BTBTgts, d.BTBLRU} {
		if err := c.u64s(u); err != nil {
			return err
		}
	}
	if err := c.bools(d.BTBValid); err != nil {
		return err
	}
	if err := c.u64(d.BTBStamp); err != nil {
		return err
	}
	if err := c.u64s(d.RAS); err != nil {
		return err
	}
	return c.u64(uint64(int64(d.RASTop)))
}

// predDelta decodes one predictor delta into d, reusing its arrays.
func (c *codecReader) predDelta(d *bpred.Delta) error {
	n, err := c.u64()
	if err != nil {
		return err
	}
	btbn, err := c.u64()
	if err != nil {
		return err
	}
	if n > maxLen || btbn > maxLen {
		return fmt.Errorf("unreasonable delta geometry %d/%d", n, btbn)
	}
	d.N, d.BTBN = int(n), int(btbn)
	tg, err := c.u64()
	if err != nil {
		return err
	}
	bg, err := c.u64()
	if err != nil {
		return err
	}
	if tg > 30 || bg > 30 {
		return fmt.Errorf("unreasonable delta grains %d/%d", tg, bg)
	}
	d.TblGrain, d.BTBGrain = uint8(tg), uint8(bg)
	if d.TblBlocks, err = c.u32s(d.TblBlocks); err != nil {
		return err
	}
	if d.Bimodal, err = c.bytes(d.Bimodal); err != nil {
		return err
	}
	if d.Gshare, err = c.bytes(d.Gshare); err != nil {
		return err
	}
	if d.Chooser, err = c.bytes(d.Chooser); err != nil {
		return err
	}
	if d.History, err = c.u64(); err != nil {
		return err
	}
	if d.BTBBlocks, err = c.u32s(d.BTBBlocks); err != nil {
		return err
	}
	if d.BTBTags, err = c.u64s(d.BTBTags); err != nil {
		return err
	}
	if d.BTBTgts, err = c.u64s(d.BTBTgts); err != nil {
		return err
	}
	if d.BTBLRU, err = c.u64s(d.BTBLRU); err != nil {
		return err
	}
	if d.BTBValid, err = c.bools(d.BTBValid); err != nil {
		return err
	}
	if d.BTBStamp, err = c.u64(); err != nil {
		return err
	}
	if d.RAS, err = c.u64s(d.RAS); err != nil {
		return err
	}
	top, err := c.u64()
	if err != nil {
		return err
	}
	d.RASTop = int(int64(top))
	return nil
}

// warmDelta emits one dirty-block warm delta (hierarchy + predictor).
// The chain linkage (Since/Seq) is implicit in record order and not
// serialized: the reader rebuilds Prev links as it goes.
func (c *codecWriter) warmDelta(d *uarch.WarmDelta) error {
	for _, cd := range []*cache.Delta{d.Hier.IL1, d.Hier.DL1, d.Hier.L2, d.Hier.ITLB, d.Hier.DTLB} {
		if err := c.cacheDelta(cd); err != nil {
			return err
		}
	}
	return c.predDelta(d.Pred)
}

// warmDelta decodes one warm delta into d, whose hierarchy and
// predictor halves it must already hold (newWarmDelta).
func (c *codecReader) warmDelta(d *uarch.WarmDelta) error {
	for _, cd := range []*cache.Delta{d.Hier.IL1, d.Hier.DL1, d.Hier.L2, d.Hier.ITLB, d.Hier.DTLB} {
		if err := c.cacheDelta(cd); err != nil {
			return err
		}
	}
	return c.predDelta(d.Pred)
}

// warmState decodes one full warm snapshot into w, whose structures it
// must already hold (newWarmState).
func (c *codecReader) warmState(w *WarmState) error {
	for _, s := range []*cache.State{w.Hier.IL1, w.Hier.DL1, w.Hier.L2, w.Hier.ITLB, w.Hier.DTLB} {
		if err := c.cacheState(s); err != nil {
			return err
		}
	}
	return c.predState(w.Pred)
}

// newWarmState and newWarmDelta return empty decode targets: every
// structure present, no array allocated yet.
func newWarmState() *WarmState {
	return &WarmState{
		Hier: &cache.HierarchyState{IL1: new(cache.State), DL1: new(cache.State), L2: new(cache.State),
			ITLB: new(cache.State), DTLB: new(cache.State)},
		Pred: new(bpred.State),
	}
}

func newWarmDelta() *uarch.WarmDelta {
	return &uarch.WarmDelta{
		Hier: &cache.HierarchyDelta{IL1: new(cache.Delta), DL1: new(cache.Delta), L2: new(cache.Delta),
			ITLB: new(cache.Delta), DTLB: new(cache.Delta)},
		Pred: new(bpred.Delta),
	}
}

// warmGeom records the structure geometry of the last full snapshot so
// subsequent delta records can be validated at load time: a corrupt
// delta must surface as a decode error (and therefore a store miss),
// never as an out-of-range panic or silently wrong state at replay.
type warmGeom struct {
	il1, dl1, l2, itlb, dtlb int
	tbl, btb, ras            int
}

func geomOf(w *WarmState) warmGeom {
	return warmGeom{
		il1:  len(w.Hier.IL1.Tags),
		dl1:  len(w.Hier.DL1.Tags),
		l2:   len(w.Hier.L2.Tags),
		itlb: len(w.Hier.ITLB.Tags),
		dtlb: len(w.Hier.DTLB.Tags),
		tbl:  len(w.Pred.Bimodal),
		btb:  len(w.Pred.BTBTags),
		ras:  len(w.Pred.RAS),
	}
}

// validate checks a decoded warm delta against the chain's geometry.
func (g warmGeom) validate(d *uarch.WarmDelta) error {
	for _, pair := range []struct {
		d *cache.Delta
		n int
	}{
		{d.Hier.IL1, g.il1}, {d.Hier.DL1, g.dl1}, {d.Hier.L2, g.l2},
		{d.Hier.ITLB, g.itlb}, {d.Hier.DTLB, g.dtlb},
	} {
		if err := pair.d.Validate(pair.n); err != nil {
			return err
		}
	}
	return d.Pred.Validate(g.tbl, g.btb, g.ras)
}

// unitDecoder decodes a stream's page and unit records in order. It
// carries what a record needs from the ones before it: the page arrays
// by record id, the previously decoded unit (the delta chain
// predecessor, for memory and warm state alike) and the geometry
// established by the chain's last keyframe. With buf set, every record
// is decoded into the same buffers — for a reader that hands each unit
// on before it reads the next, so a delta unit costs no allocation once
// the buffers have grown; such units carry no Prev link. Without it
// every unit is decoded afresh and linked to its predecessor, for a Set
// that keeps them all.
type unitDecoder struct {
	pages []*[mem.PageSize]byte
	prev  *Unit
	geom  warmGeom
	buf   *unitBuf
}

// unitBuf is the storage a reusing unitDecoder overwrites record after
// record (newUnitBuf), and the page arrays it decodes page records into:
// pages keeps, from one read to the next, the arrays of its first
// arenaPages slots.
type unitBuf struct {
	unit  Unit
	mem   mem.Delta
	img   mem.Image // the last keyframe's page table
	refs  []uint64
	pages []*[mem.PageSize]byte
	warm  *WarmState
	delta *uarch.WarmDelta
}

func newUnitBuf() *unitBuf {
	return &unitBuf{warm: newWarmState(), delta: newWarmDelta()}
}

// reset drops the last decoded unit and its page references. It keeps
// for the next read the arrays of the first arenaPages page slots and
// the page tables, unless a table grew past arenaPages entries: then
// the tables go too, so a reader keeps at most arenaPages pages' worth.
func (b *unitBuf) reset() {
	b.unit = Unit{}
	if cap(b.mem.Nums) > arenaPages { // every table grows with Nums
		b.mem, b.img, b.refs = mem.Delta{}, mem.Image{}, nil
	}
	clear(b.mem.Pages[:cap(b.mem.Pages)])
	b.mem = mem.Delta{Nums: b.mem.Nums[:0], Pages: b.mem.Pages[:0]}
	b.img.CopyFrom(&mem.Image{})
	b.refs = b.refs[:0]
	if cap(b.pages) > arenaPages {
		b.pages = append(make([]*[mem.PageSize]byte, 0, arenaPages), b.pages[:arenaPages]...)
	}
	b.pages = b.pages[:0]
}

// page decodes a page record's payload into the next slot of d.pages:
// into the array an earlier read left there (a reusing decoder's arena),
// else into a new one.
func (d *unitDecoder) page(c *codecReader) error {
	n := len(d.pages)
	d.pages = slices.Grow(d.pages, 1)[:n+1]
	if d.pages[n] == nil {
		d.pages[n] = new([mem.PageSize]byte)
	}
	return c.page(d.pages[n])
}

// unit decodes one unit record.
func (d *unitDecoder) unit(c *codecReader) (*Unit, error) {
	prev := d.prev
	prevWarm := prev != nil && (prev.Warm != nil || prev.Delta != nil)
	var (
		u        *Unit
		img      *mem.Image // a keyframe's page table
		nums     []uint64
		refs     []uint64
		pageRefs []*[mem.PageSize]byte
	)
	if b := d.buf; b != nil {
		b.unit = Unit{}
		u, img, nums, refs, pageRefs = &b.unit, &b.img, b.mem.Nums, b.refs, b.mem.Pages
	} else {
		u = new(Unit)
	}
	var err error
	if u.Index, err = c.u64(); err != nil {
		return nil, err
	}
	if u.Start, err = c.u64(); err != nil {
		return nil, err
	}
	if u.LaunchAt, err = c.u64(); err != nil {
		return nil, err
	}
	regs, err := c.u64s(u.Arch.Regs[:0])
	if err != nil {
		return nil, err
	}
	if len(regs) != isa.NumRegs {
		return nil, fmt.Errorf("unit %d: %d registers, want %d", u.Index, len(regs), isa.NumRegs)
	}
	if u.Arch.PC, err = c.u64(); err != nil {
		return nil, err
	}
	if u.Arch.Count, err = c.u64(); err != nil {
		return nil, err
	}
	var vals [5]uint64 // halted, reserved, fetch-block flag and block, memory encoding
	for i := range vals {
		if vals[i], err = c.u64(); err != nil {
			return nil, err
		}
	}
	u.Arch.Halted, u.HaveIBlock, u.LastIBlock = vals[0] != 0, vals[2] != 0, vals[3]
	mKind := vals[4]
	if nums, err = c.u64s(nums); err != nil {
		return nil, err
	}
	if refs, err = c.u64s(refs); err != nil {
		return nil, err
	}
	if len(nums) != len(refs) {
		return nil, fmt.Errorf("unit %d: page table mismatch", u.Index)
	}
	pageRefs = fit(pageRefs, len(refs))
	for i, ref := range refs {
		if ref >= uint64(len(d.pages)) {
			return nil, fmt.Errorf("unit %d: page ref %d out of range", u.Index, ref)
		}
		pageRefs[i] = d.pages[ref]
	}
	if b := d.buf; b != nil {
		b.mem.Nums, b.refs, b.mem.Pages = nums, refs, pageRefs
	}
	switch mKind {
	case memFull:
		// A keyframe's page table is a delta from the empty image.
		if img == nil {
			img = new(mem.Image)
		}
		img.CopyFrom(&mem.Image{})
		if err := img.Apply(&mem.Delta{Nums: nums, Pages: pageRefs}); err != nil {
			return nil, fmt.Errorf("unit %d: %w", u.Index, err)
		}
		u.Mem = img
	case memDelta:
		if prev == nil {
			return nil, fmt.Errorf("unit %d: memory delta with no preceding keyframe", u.Index)
		}
		var md *mem.Delta
		if d.buf != nil {
			md = &d.buf.mem
		} else {
			md = &mem.Delta{Nums: nums, Pages: pageRefs}
			u.Prev = prev
		}
		if err := md.Validate(); err != nil {
			return nil, fmt.Errorf("unit %d: %w", u.Index, err)
		}
		u.MemDelta = md
	default:
		return nil, fmt.Errorf("unit %d: unknown memory encoding %d", u.Index, mKind)
	}

	kind, err := c.u64()
	if err != nil {
		return nil, err
	}
	switch kind {
	case warmNone:
		return u, nil
	case warmFull:
		if u.MemDelta != nil {
			// The writer keyframes memory and warm state together; a
			// mixed unit means records were spliced.
			return nil, fmt.Errorf("unit %d: full warm state on a memory-delta unit", u.Index)
		}
		var w *WarmState
		if d.buf != nil {
			w = d.buf.warm
		} else {
			w = newWarmState()
		}
		if err := c.warmState(w); err != nil {
			return nil, err
		}
		u.Warm = w
		d.geom = geomOf(w)
		return u, nil
	case warmDelta:
		if u.MemDelta == nil {
			return nil, fmt.Errorf("unit %d: warm delta on a memory-keyframe unit", u.Index)
		}
		// A memory-delta unit has a predecessor (checked above); its warm
		// delta applies to that same unit's warm state.
		if !prevWarm {
			return nil, fmt.Errorf("unit %d: warm and memory chains diverge", u.Index)
		}
		var wd *uarch.WarmDelta
		if d.buf != nil {
			wd = d.buf.delta
		} else {
			wd = newWarmDelta()
		}
		if err := c.warmDelta(wd); err != nil {
			return nil, err
		}
		if err := d.geom.validate(wd); err != nil {
			return nil, fmt.Errorf("unit %d: %w", u.Index, err)
		}
		u.Delta = wd
		return u, nil
	}
	return nil, fmt.Errorf("unit %d: unknown warm encoding %d", u.Index, kind)
}
