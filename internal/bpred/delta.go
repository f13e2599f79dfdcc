package bpred

// Delta snapshots: dirty-block encoding of predictor state — the bpred
// implementation of the shared snapshot/delta-chain contract
// (internal/delta), mirroring the cache package's. The direction tables
// (bimodal/gshare/chooser share indices) and the BTB arrays are covered
// by fixed-granularity delta.Bitmaps maintained inside Update and the
// BTB lookup/insert paths; the return address stack, history register,
// and stamps are small enough to carry in full in every delta. Delta +
// State.Apply reproduce a full Snapshot exactly (property-tested in
// delta_test.go). Deltas are self-describing: each carries its grains,
// so stored chains survive granularity retuning.

import (
	"fmt"

	"repro/internal/delta"
)

// The predictor implements the shared snapshot/delta contract.
var (
	_ delta.Source[*State, *Delta] = (*Unit)(nil)
	_ delta.State[*Delta]          = (*State)(nil)
)

const (
	// tblGrainShift: 4 direction-table entries (4 bytes per table, three
	// tables) share one dirty bit. Predictor updates touch single
	// indices scattered by the PC/history hash, so a near-entry grain
	// minimizes dead weight per dirty bit.
	tblGrainShift = 2
	// btbGrainShift: 2 BTB entries (~50 bytes of tag/target/LRU/valid
	// state) share one dirty bit.
	btbGrainShift = 1
)

// markTbl records direction-table index i as modified.
//
//simlint:hotpath
func (u *Unit) markTbl(i int) { u.tblDirty.Mark(i) }

// markBTB records BTB entry i as modified.
//
//simlint:hotpath
func (u *Unit) markBTB(i int) { u.btbDirty.Mark(i) }

// markAllDirty forces the next delta to carry the full arrays.
//
//simlint:hotpath
func (u *Unit) markAllDirty() {
	u.tblDirty.MarkAll()
	u.btbDirty.MarkAll()
}

// Delta is a dirty-block delta between two predictor snapshots. Table
// block b covers indices [b<<TblGrain, (b+1)<<TblGrain); BTB block b
// covers entries [b<<BTBGrain, min((b+1)<<BTBGrain, BTBN)). The RAS and
// the scalars are always carried in full (a few hundred bytes at most).
type Delta struct {
	// N is the direction-table entry count, BTBN the BTB entry count,
	// and TblGrain/BTBGrain the log2 block granularities (geometry
	// checks).
	N, BTBN            int
	TblGrain, BTBGrain uint8

	// TblBlocks holds dirty direction-table block indices, strictly
	// ascending; Bimodal/Gshare/Chooser hold those blocks' segments.
	TblBlocks                []uint32
	Bimodal, Gshare, Chooser []uint8
	History                  uint64

	// BTBBlocks holds dirty BTB block indices, strictly ascending, with
	// the corresponding array segments.
	BTBBlocks        []uint32
	BTBTags, BTBTgts []uint64
	BTBLRU           []uint64
	BTBValid         []bool
	BTBStamp         uint64

	RAS    []uint64
	RASTop int
}

// Seq returns the predictor's current snapshot-chain link (0 before the
// first Snapshot).
func (u *Unit) Seq() uint64 { return u.chain.Seq() }

// Delta captures the table and BTB blocks touched since the snapshot
// point numbered since — which must be the predictor's latest; deltas
// chain strictly — into arrays carved from a (fresh ones for a nil a),
// and clears the dirty tracking. Applying it to a copy of the previous
// snapshot reproduces Snapshot exactly.
func (u *Unit) Delta(a *delta.Arena, since uint64) (*Delta, error) {
	if _, err := u.chain.Next(since); err != nil {
		return nil, fmt.Errorf("bpred: %w", err)
	}
	tbl, tg := u.tblDirty.Drain(a), u.tblDirty.Grain()
	btb, bg := u.btbDirty.Drain(a), u.btbDirty.Grain()
	d := &Delta{
		N:         len(u.bimodal),
		BTBN:      len(u.btbTags),
		TblGrain:  tg,
		BTBGrain:  bg,
		TblBlocks: tbl,
		Bimodal:   delta.Gather(a, u.bimodal, tbl, tg),
		Gshare:    delta.Gather(a, u.gshare, tbl, tg),
		Chooser:   delta.Gather(a, u.chooser, tbl, tg),
		History:   u.history,
		BTBBlocks: btb,
		BTBTags:   delta.Gather(a, u.btbTags, btb, bg),
		BTBTgts:   delta.Gather(a, u.btbTgts, btb, bg),
		BTBLRU:    delta.Gather(a, u.btbLRU, btb, bg),
		BTBValid:  delta.Gather(a, u.btbValid, btb, bg),
		BTBStamp:  u.btbStamp,
		RAS:       delta.Make[uint64](a, len(u.ras)),
		RASTop:    u.rasTop,
	}
	copy(d.RAS, u.ras)
	return d, nil
}

// Validate checks the delta's internal consistency against a predictor
// with n direction-table entries, btbn BTB entries, and rasn RAS slots.
//
//simlint:coldpath geometry validation; one pass over the block lists, allocates only to report a corrupt delta
func (d *Delta) Validate(n, btbn, rasn int) error {
	if d.N != n || d.BTBN != btbn {
		return fmt.Errorf("bpred delta: geometry %d/%d, state has %d/%d", d.N, d.BTBN, n, btbn)
	}
	if len(d.RAS) != rasn {
		return fmt.Errorf("bpred delta: RAS %d entries, state has %d", len(d.RAS), rasn)
	}
	if d.RASTop < 0 || d.RASTop > rasn {
		return fmt.Errorf("bpred delta: RAS top %d out of range (%d entries)", d.RASTop, rasn)
	}
	total, err := delta.ValidateBlocks(d.TblBlocks, d.TblGrain, n, "bpred table")
	if err != nil {
		return err
	}
	if len(d.Bimodal) != total || len(d.Gshare) != total || len(d.Chooser) != total {
		return fmt.Errorf("bpred delta: table segments %d/%d/%d, want %d",
			len(d.Bimodal), len(d.Gshare), len(d.Chooser), total)
	}
	total, err = delta.ValidateBlocks(d.BTBBlocks, d.BTBGrain, btbn, "BTB")
	if err != nil {
		return err
	}
	if len(d.BTBTags) != total || len(d.BTBTgts) != total || len(d.BTBLRU) != total || len(d.BTBValid) != total {
		return fmt.Errorf("bpred delta: BTB segments %d/%d/%d/%d, want %d",
			len(d.BTBTags), len(d.BTBTgts), len(d.BTBLRU), len(d.BTBValid), total)
	}
	return nil
}

// Bytes returns the approximate in-memory payload size of the delta.
func (d *Delta) Bytes() int {
	return 8 + 8 + 8 + // history, stamp, rasTop
		4*len(d.TblBlocks) + len(d.Bimodal) + len(d.Gshare) + len(d.Chooser) +
		4*len(d.BTBBlocks) + 8*len(d.BTBTags) + 8*len(d.BTBTgts) + 8*len(d.BTBLRU) + len(d.BTBValid) +
		8*len(d.RAS)
}

// Bytes returns the approximate in-memory payload size of a full
// snapshot.
func (s *State) Bytes() int {
	return 8 + 8 + 8 +
		len(s.Bimodal) + len(s.Gshare) + len(s.Chooser) +
		8*len(s.BTBTags) + 8*len(s.BTBTgts) + 8*len(s.BTBLRU) + len(s.BTBValid) +
		8*len(s.RAS)
}

// Clone returns a deep copy of the snapshot.
func (s *State) Clone() *State {
	return &State{
		Bimodal:  append([]uint8(nil), s.Bimodal...),
		Gshare:   append([]uint8(nil), s.Gshare...),
		Chooser:  append([]uint8(nil), s.Chooser...),
		History:  s.History,
		BTBTags:  append([]uint64(nil), s.BTBTags...),
		BTBTgts:  append([]uint64(nil), s.BTBTgts...),
		BTBValid: append([]bool(nil), s.BTBValid...),
		BTBLRU:   append([]uint64(nil), s.BTBLRU...),
		BTBStamp: s.BTBStamp,
		RAS:      append([]uint64(nil), s.RAS...),
		RASTop:   s.RASTop,
	}
}

// CopyFrom makes s a deep copy of src, reusing s's arrays when they
// already have src's geometry — the copy-into-existing form of Clone a
// rolling launch state refills at each keyframe without allocating.
//
//simlint:hotpath
func (s *State) CopyFrom(src *State) {
	if len(s.Bimodal) != len(src.Bimodal) || len(s.BTBTags) != len(src.BTBTags) || len(s.RAS) != len(src.RAS) {
		//simlint:coldpath first use (or a geometry change): allocate the arrays once
		*s = *src.Clone()
		return
	}
	copy(s.Bimodal, src.Bimodal)
	copy(s.Gshare, src.Gshare)
	copy(s.Chooser, src.Chooser)
	s.History = src.History
	copy(s.BTBTags, src.BTBTags)
	copy(s.BTBTgts, src.BTBTgts)
	copy(s.BTBValid, src.BTBValid)
	copy(s.BTBLRU, src.BTBLRU)
	s.BTBStamp = src.BTBStamp
	copy(s.RAS, src.RAS)
	s.RASTop = src.RASTop
}

// Apply patches the snapshot forward by one delta: after Apply, the
// state equals the full Snapshot taken at the point the delta was
// captured. The receiver must be (a copy of) the snapshot the delta
// was taken against.
//
//simlint:hotpath
func (s *State) Apply(d *Delta) error {
	if err := d.Validate(len(s.Bimodal), len(s.BTBTags), len(s.RAS)); err != nil {
		return err
	}
	// Blocks are copied element by element: at the package's grains (two
	// and four entries a block) a copy call per array costs more in call
	// and slicing overhead than the few entries it moves. The last block
	// is clamped to the array length (delta.Span).
	off := 0
	for _, b := range d.TblBlocks {
		lo, hi := delta.Span(b, d.TblGrain, d.N)
		for i := lo; i < hi; i++ {
			s.Bimodal[i] = d.Bimodal[off]
			s.Gshare[i] = d.Gshare[off]
			s.Chooser[i] = d.Chooser[off]
			off++
		}
	}
	off = 0
	for _, b := range d.BTBBlocks {
		lo, hi := delta.Span(b, d.BTBGrain, d.BTBN)
		for i := lo; i < hi; i++ {
			s.BTBTags[i] = d.BTBTags[off]
			s.BTBTgts[i] = d.BTBTgts[off]
			s.BTBLRU[i] = d.BTBLRU[off]
			s.BTBValid[i] = d.BTBValid[off]
			off++
		}
	}
	s.History = d.History
	s.BTBStamp = d.BTBStamp
	copy(s.RAS, d.RAS)
	s.RASTop = d.RASTop
	return nil
}
