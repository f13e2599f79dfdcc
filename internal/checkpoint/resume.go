package checkpoint

// Resumable sweeps: the partial-sweep record and the resume path.
//
// A functional sweep is the one serial, unsharded cost of a sampled
// run, and before this file it was all-or-nothing: a cancelled run, an
// expired sweep lease, or a killed process threw the whole sweep away.
// CaptureStream therefore journals its progress as a *partial sweep
// record* — the store's entry byte stream (header, manifest, page
// and unit records) interleaved with Frame records (recFrame) that pin
// the exact sweep state after a captured unit: the captured-unit count,
// the stream position, the accumulated sweep time, and the warmer's
// fetch-dedup block. Everything else a resume needs is already in the
// last captured unit: capturing a unit snapshots (or delta-snapshots)
// memory and warm state and resets both dirty journals, so the unit's
// materialization IS the sweep state at its launch point.
//
// Store.PartialWriter stages the journal next to the committed entries
// (<hash>.partial): records stream into a temp file and the first
// Checkpoint atomically renames it into place, so a crash at any byte
// leaves either no journal or one whose valid-frame prefix is intact.
// Later Checkpoints append in place and re-flush; readers accept the
// longest prefix ending in a frame that is consistent with the decoded
// units, so truncation or bit corruption degrades to an earlier frame
// or a cold start — never to a wrong resume (the same discipline the
// committed-entry reader applies, swept by the corruption suite).
//
// Store.LoadPartial reconstructs a ResumeState from the journal, and
// CaptureStream (Params.Resume) continues from it: it replays the
// boundary generator over the journaled units (validating each against
// the plan), rebuilds the sweep CPU from the last unit's arch state and
// materialized memory, restores the warmed structures, and carries on
// fast-forward + capture from the journaled instruction count. The
// continued unit stream is bit-identical to the tail of an
// uninterrupted sweep.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// partialExt names the on-disk partial-sweep journal of a key; the
// committed entry keeps storeExt, and the index/LRU (which glob only
// storeExt) never see journals.
const partialExt = ".partial"

// ResumeFrame is the sweep-side state pinned immediately after one
// captured unit: together with the units captured so far it is
// everything a resumed CaptureStream needs to continue bit-identically.
// Params.OnFrame observes one per captured unit; PartialWriter.
// Checkpoint persists the frames a journal commits.
type ResumeFrame struct {
	// Captured is the number of units captured up to and including this
	// frame's unit.
	Captured int
	// SweepInsts is the stream position at the frame — the last unit's
	// launch point, where the resumed CPU restarts.
	SweepInsts uint64
	// SweepTime is the wall-clock sweep cost accumulated so far.
	SweepTime time.Duration
	// HaveIBlock/LastIBlock journal the warmer's consecutive-fetch dedup
	// state (uarch.Warmer.FetchBlock); restoring warm state without it
	// would issue one extra warm fetch after resume and skew the warmed
	// LRU stamps off the uninterrupted sweep.
	HaveIBlock bool
	LastIBlock uint64
}

// ResumeState is a reconstructed partial sweep: the journaled units
// plus the frame they were journaled at. Feed it to CaptureStream via
// Params.Resume; the already-captured units are not re-emitted, so the
// consumer must account for them itself (the engine feeds them straight
// into its replay pipeline).
type ResumeState struct {
	// Units holds the journaled units in capture order, delta chains
	// intact.
	Units []*Unit
	// PopulationUnits echoes the journal's manifest.
	PopulationUnits uint64
	// SweepInsts, SweepTime, HaveIBlock, and LastIBlock mirror the
	// ResumeFrame the journal was cut at (Captured == len(Units)).
	SweepInsts uint64
	SweepTime  time.Duration
	HaveIBlock bool
	LastIBlock uint64
}

// resumeSweep rebuilds the sweep execution state from a journaled
// partial: it replays gen over the journaled units (validating that the
// journal belongs to exactly this plan) and returns the CPU positioned
// at the journaled instruction count, with machine/warmer (when
// warming) restored to the last unit's warm state.
func resumeSweep(prog *program.Program, machine *uarch.Machine, warmer *uarch.Warmer, gen *boundaryGen, rs *ResumeState) (*functional.CPU, error) {
	for i, u := range rs.Units {
		b, ok := gen.next()
		if !ok || b.unit != u.Index || b.start != u.Start || b.launch != u.LaunchAt {
			return nil, fmt.Errorf("checkpoint: resume: journaled unit %d (population unit %d @%d) does not match the plan", i, u.Index, u.LaunchAt)
		}
	}
	last := rs.Units[len(rs.Units)-1]
	if last.Arch.Count != rs.SweepInsts {
		return nil, fmt.Errorf("checkpoint: resume: journaled position %d does not match last unit's launch %d", rs.SweepInsts, last.Arch.Count)
	}
	launch, err := last.Materialize()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: resume: %w", err)
	}
	if machine != nil {
		if launch.Warm == nil {
			return nil, fmt.Errorf("checkpoint: resume: journal carries no warm state for a warmed plan")
		}
		if err := machine.Hier.Restore(launch.Warm.Hier); err != nil {
			return nil, fmt.Errorf("checkpoint: resume: %w", err)
		}
		if err := machine.Pred.Restore(launch.Warm.Pred); err != nil {
			return nil, fmt.Errorf("checkpoint: resume: %w", err)
		}
		warmer.SetFetchBlock(rs.LastIBlock, rs.HaveIBlock)
	}
	// NewMemory shares the materialized image copy-on-write with the
	// journaled units, exactly as the uninterrupted sweep's memory
	// shared pages with the units it had captured.
	return functional.NewAt(prog, last.Arch, launch.Mem.NewMemory()), nil
}

func (s *Store) partialPath(k Key) string {
	return filepath.Join(s.dir, k.Hash()+partialExt)
}

// LoadPartial loads the partial-sweep journal stored under k and
// reconstructs the sweep state to continue from, or nil when the store
// holds no usable journal (absent or corrupt — corruption degrades to
// the journal's last valid frame before giving up entirely, and is
// logged, never an error). Pass the result to CaptureStream via
// Params.Resume.
//
//simlint:noctx bounded single-file metadata read; no long blocking
func (s *Store) LoadPartial(k Key) (*ResumeState, error) {
	path := s.partialPath(k)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: load partial: %w", err)
	}
	defer f.Close()
	rs, err := readPartial(f, k)
	if err != nil {
		s.Log("checkpoint store: discarding unusable partial %s: %v", filepath.Base(path), err)
		return nil, nil
	}
	s.Log("checkpoint store: partial hit %s (%s: %d units, resume at inst %d)",
		k.Hash(), k.Workload, len(rs.Units), rs.SweepInsts)
	return rs, nil
}

// DropPartial removes k's partial-sweep journal, if any — called once
// the completed sweep commits and the journal has nothing left to add.
func (s *Store) DropPartial(k Key) {
	os.Remove(s.partialPath(k))
}

// SavePartial atomically installs rs as k's partial-sweep journal,
// replacing any previous journal: a PartialWriter fed the whole state
// at once, as Store.Save is to Writer — used when a ready-made
// ResumeState arrives (the distributed coordinator receiving a worker's
// journal upload) rather than streaming out of a live sweep.
//
//simlint:noctx bounded single-file atomic install; no long blocking
func (s *Store) SavePartial(k Key, rs *ResumeState) error {
	w, err := s.PartialWriter(k, rs.PopulationUnits)
	if err != nil {
		return err
	}
	for _, u := range rs.Units {
		if err := w.Add(u); err != nil {
			return fmt.Errorf("checkpoint: save partial: %w", err)
		}
	}
	if err := w.Checkpoint(rs.frame()); err != nil {
		return fmt.Errorf("checkpoint: save partial: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("checkpoint: save partial: %w", err)
	}
	return nil
}

// frame is the ResumeFrame rs was cut at.
func (rs *ResumeState) frame() ResumeFrame {
	return ResumeFrame{
		Captured:   len(rs.Units),
		SweepInsts: rs.SweepInsts,
		SweepTime:  rs.SweepTime,
		HaveIBlock: rs.HaveIBlock,
		LastIBlock: rs.LastIBlock,
	}
}

// PartialWriter streams a sweep's units into a crash-safe journal
// alongside the committed store entries. Add appends each unit as it is
// captured (the same delta-or-keyframe records SetWriter writes);
// Checkpoint seals the records so far under a frame and makes the
// journal durable — the first Checkpoint atomically renames the staged
// temp file into place, later ones append and flush. A journal with no
// Checkpoint is never installed. Close keeps the installed journal for
// a future resume; Discard removes everything the writer created.
type PartialWriter struct {
	store     *Store
	key       Key
	f         *os.File
	enc       *setEncoder
	installed bool
	err       error
}

// PartialWriter stages a partial-sweep journal for k. pop is the
// workload's population size in units.
//
//simlint:noctx opens a staging temp file; writes stream under the caller's ctx
func (s *Store) PartialWriter(k Key, pop uint64) (*PartialWriter, error) {
	tmp, err := os.CreateTemp(s.dir, k.Hash()+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: partial writer: %w", err)
	}
	w := &PartialWriter{store: s, key: k, f: tmp}
	enc, err := newSetEncoder(tmp, k, pop)
	if err != nil {
		w.cleanup()
		return nil, err
	}
	w.enc = enc
	return w, nil
}

// Load returns the journal an interrupted sweep of this writer's key
// left in the store (Store.LoadPartial), nil when there is nothing to
// resume from; a read failure is logged and counts as a miss. The
// writer's own records stay staged apart from that journal until its
// first Checkpoint replaces it.
func (w *PartialWriter) Load() *ResumeState {
	rs, err := w.store.LoadPartial(w.key)
	if err != nil {
		w.store.Log("checkpoint store: resume unavailable: %v", err)
		return nil
	}
	return rs
}

// Drop removes the journal Load returned, which failed resume
// validation with why; the writer goes on staging its own. For use
// before the first Checkpoint (after it the key's journal is this one).
func (w *PartialWriter) Drop(why error) {
	w.store.Log("checkpoint store: dropping unusable partial %s: %v", w.key.Hash(), why)
	w.store.DropPartial(w.key)
}

// fail records and logs the writer's first error and removes what it
// wrote. A journal from an earlier run that this writer never replaced
// stays usable.
func (w *PartialWriter) fail(err error) {
	if w.err == nil {
		w.err = err
		w.store.Log("checkpoint store: sweep journal failed: %v", err)
	}
	w.cleanup()
}

// cleanup closes the file and removes whatever path it lives at.
func (w *PartialWriter) cleanup() {
	if w.f == nil {
		return
	}
	name := w.f.Name()
	if w.installed {
		name = w.store.partialPath(w.key)
	}
	w.f.Close()
	os.Remove(name)
	w.f = nil
}

// Add appends one unit's records. Errors are sticky.
func (w *PartialWriter) Add(u *Unit) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.add(u); err != nil {
		w.fail(err)
	}
	return w.err
}

// Checkpoint commits the journal through fr: every record written so
// far plus the frame is flushed, and on the first call the journal is
// atomically installed under the key's partial path. fr must describe
// exactly the units added so far.
func (w *PartialWriter) Checkpoint(fr ResumeFrame) error {
	if w.err != nil {
		return w.err
	}
	if fr.Captured != w.enc.units {
		w.fail(fmt.Errorf("checkpoint: partial frame at %d units, %d written", fr.Captured, w.enc.units))
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

// Close flushes and closes the journal, keeping it on disk when at
// least one Checkpoint installed it (a journal with no frames is
// removed — there is nothing to resume from).
func (w *PartialWriter) Close() error {
	if w.f == nil {
		return w.err
	}
	if !w.installed {
		w.cleanup()
		return w.err
	}
	ferr := w.enc.cw.w.Flush()
	cerr := w.f.Close()
	w.f = nil
	if w.err == nil {
		if ferr != nil {
			w.err = ferr
		} else if cerr != nil {
			w.err = cerr
		}
		if w.err != nil {
			w.store.Log("checkpoint store: sweep journal close failed: %v", w.err)
		} else {
			w.store.Log("checkpoint store: journaled partial %s (%s: %d units)",
				w.key.Hash(), w.key.Workload, w.enc.units)
		}
	}
	return w.err
}

// Discard removes the journal — staged or installed — because the
// completed sweep made it redundant (or the caller is abandoning it).
func (w *PartialWriter) Discard() {
	w.cleanup()
	w.store.DropPartial(w.key)
	if w.err == nil {
		w.err = fmt.Errorf("checkpoint: partial journal discarded")
	}
}

// frame appends one recFrame record sealing the units written so far:
// the resume frame's scalars plus the keyframe ordinals accumulated to
// this point — the same index the committed entry's recKeyIdx carries,
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
	// Seal the cumulative journal prefix under this frame. Each frame's
	// checksum covers every byte since the manifest — including earlier
	// frames and their checksums, which folded into the running sum as
	// ordinary u64 fields — so a reader verifying frame n has verified
	// the whole prefix it would resume from.
	return e.cw.u64(uint64(e.cw.sum()))
}

// EncodePartial writes rs, keyed by k, as one partial-sweep byte stream
// — the journal format with a single frame at the end. It is the wire
// form the distributed service hands partial sweeps across workers
// with, exactly as EncodeSet is for completed sweeps.
func EncodePartial(w io.Writer, k Key, rs *ResumeState) error {
	enc, err := newSetEncoder(w, k, rs.PopulationUnits)
	if err != nil {
		return fmt.Errorf("checkpoint: encode partial: %w", err)
	}
	for _, u := range rs.Units {
		if err := enc.add(u); err != nil {
			return fmt.Errorf("checkpoint: encode partial: %w", err)
		}
	}
	if err := enc.frame(rs.frame()); err != nil {
		return fmt.Errorf("checkpoint: encode partial: %w", err)
	}
	if err := enc.cw.w.Flush(); err != nil {
		return fmt.Errorf("checkpoint: encode partial: %w", err)
	}
	return nil
}

// DecodePartial reads one EncodePartial (or journal-file) byte stream
// and reconstructs the ResumeState, guarded by the expected key like
// DecodeSet. Corruption degrades to the longest valid-frame prefix; a
// stream with no valid frame is an error.
func DecodePartial(r io.Reader, k Key) (*ResumeState, error) {
	rs, err := readPartial(r, k)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode partial: %w", err)
	}
	return rs, nil
}

// readPartial scans a partial-sweep byte stream and returns the state
// at the last frame consistent with the records before it. Unlike
// readSet — where any defect fails the whole entry — a defect here
// (truncation mid-record, a frame disagreeing with the decoded units,
// an unknown tag) only ends the scan: the journal is by construction a
// prefix of a crashed write, so everything before the last good frame
// is still a correct, older resume point.
func readPartial(r io.Reader, k Key) (*ResumeState, error) {
	cr, man, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if man.Key.String() != k.String() {
		return nil, fmt.Errorf("key mismatch: stored %s", man.Key)
	}

	var (
		pages     []*[mem.PageSize]byte
		units     []*Unit
		prev      *Unit
		geom      warmGeom
		keyframes []uint64
		good      *ResumeState
	)
scan:
	for {
		tag, err := cr.u64()
		if err != nil {
			break // truncated at a record boundary: keep the last frame
		}
		switch tag {
		case recPage:
			page, err := cr.bytes()
			if err != nil || len(page) != mem.PageSize {
				break scan
			}
			pages = append(pages, (*[mem.PageSize]byte)(page))
		case recUnit:
			u, err := cr.unit(pages, prev, &geom)
			if err != nil {
				break scan
			}
			if u.Mem != nil {
				keyframes = append(keyframes, uint64(len(units)))
			}
			prev = u
			units = append(units, u)
		case recFrame:
			var vals [5]uint64
			for i := range vals {
				if vals[i], err = cr.u64(); err != nil {
					break scan
				}
			}
			keyIdx, err := cr.u64s()
			if err != nil {
				break scan
			}
			// Verify the frame's seal over the whole journal prefix; a
			// mismatch means bit rot somewhere before this point, so
			// nothing from here on is trustworthy.
			expect := cr.sum()
			stored, err := cr.u64()
			if err != nil || uint32(stored) != expect {
				break scan
			}
			// A frame must describe exactly the units decoded before it;
			// anything else means records were lost or spliced — stop
			// trusting the stream, keep the previous good frame.
			if vals[0] != uint64(len(units)) || len(keyIdx) != len(keyframes) {
				break scan
			}
			for i, ord := range keyIdx {
				if ord != keyframes[i] {
					break scan
				}
			}
			good = &ResumeState{
				Units:           append([]*Unit(nil), units...),
				PopulationUnits: man.PopulationUnits,
				SweepInsts:      vals[1],
				SweepTime:       time.Duration(int64(vals[2])),
				HaveIBlock:      vals[3] != 0,
				LastIBlock:      vals[4],
			}
		default:
			break scan
		}
	}
	if good == nil || len(good.Units) == 0 {
		return nil, fmt.Errorf("no usable frame")
	}
	return good, nil
}
