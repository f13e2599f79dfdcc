package checkpoint

// Resumable sweeps: the partial-sweep journal and the resume path.
//
// A functional sweep is the one serial, unsharded cost of a sampled
// run, and before this file it was all-or-nothing: a cancelled run or a
// killed process threw the whole sweep away.
// The sweep's store entry is therefore written as it runs and doubles as
// its journal: the entry byte stream (header, manifest, page and unit
// records) interleaved with Frame records (recFrame) that pin the exact
// sweep state after a captured unit: the captured-unit count, the
// stream position, the accumulated sweep time, and the warmer's
// fetch-dedup block. Everything else a resume needs is already in the
// last captured unit: capturing a unit snapshots (or delta-snapshots)
// memory and warm state and resets both dirty journals, so the unit's
// materialization IS the sweep state at its launch point.
//
// One SetWriter (store.go) writes that stream into one file. Its first
// Checkpoint renames the staged file to <hash>.partial, so a crash at
// any byte leaves either no journal or one whose framed prefix is
// intact; Commit later appends the keyframe index, the end record and
// the CRC and renames the same file to <hash>.ckpt. A committed entry
// may thus carry frames; a reader verifies them like any other record,
// and a release from before this format reads such an entry as a miss.
// The one record scanner (scanRecords) serves both readers: a partial
// keeps the longest prefix that ends at a valid frame, so truncation or
// bit corruption degrades to an earlier frame or a cold start — never
// to a wrong resume.
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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// partialExt names the on-disk partial-sweep journal of a key; the
// committed entry keeps storeExt, and eviction (which globs only
// storeExt) never sees journals.
const partialExt = ".partial"

// ResumeFrame is the sweep-side state pinned immediately after one
// captured unit: together with the units captured so far it is
// everything a resumed CaptureStream needs to continue bit-identically.
// Params.OnFrame observes one per captured unit; SetWriter.Checkpoint
// persists the frames a journal keeps.
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

// DropPartial removes k's partial-sweep journal, if any. A Commit of k
// calls it: the entry supersedes every journal of its key.
func (s *Store) DropPartial(k Key) {
	os.Remove(s.partialPath(k))
}

// readPartial returns the state at the last valid frame of a sweep
// stream: a journal, or a committed entry that was one.
func readPartial(r io.Reader, k Key) (*ResumeState, error) {
	cr, man, err := readKeyed(r, k)
	if err != nil {
		return nil, err
	}
	return resumable(scanRecords(cr, man))
}

// resumable is the partial readers' verdict on a scan: its last frame,
// or why there is none. A defect after that frame only ended the scan:
// a journal is by construction a prefix of a crashed write, so
// everything before its last good frame is still a correct, older
// resume point.
func resumable(_ *Set, last *ResumeState, err error) (*ResumeState, error) {
	if last == nil || len(last.Units) == 0 {
		if err == nil {
			err = errors.New("stream has no frame")
		}
		return nil, fmt.Errorf("no usable frame: %w", err)
	}
	return last, nil
}
