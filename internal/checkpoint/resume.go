package checkpoint

// Resumable sweeps: the partial-sweep journal and the resume path.
//
// A functional sweep is the one serial, unsharded cost of a sampled
// run, and before this file it was all-or-nothing: a cancelled run or a
// killed process threw the whole sweep away.
// The sweep's store entry is therefore written as it runs and doubles as
// its journal: a journal is the entry's byte stream without its End
// record. Every unit is a resume point. Capturing a unit snapshots (or
// delta-snapshots) memory and warm state and resets both dirty
// journals, so the unit's materialization IS the sweep state at its
// launch point; the rest of that state — the position, which is the
// unit's LaunchAt, and the warmer's fetch-dedup block — is stamped on
// the unit and written in its record (no wall-clock is), so a resumed
// sweep's entry encodes to the uninterrupted sweep's bytes.
//
// One SetWriter (store.go) writes that stream into one file. It
// installs the file as <hash>.partial at a keyframe once the file holds
// more units than the journal it replaces, and flushes at every
// keyframe after that; Commit appends the End record and renames the
// same file to <hash>.ckpt. Every record carries its own CRC-32C,
// seeded with the key and the record's position, so the one record
// scanner (scanRecords) trusts each unit as soon as its record checks
// out: a journal cut at any byte, or damaged anywhere, resumes from the
// last unit wholly verified before the damage — never from a wrong
// one.
//
// Store.LoadPartial reads those units into a ResumeState, and
// CaptureStream (Params.Resume) continues from it: it replays the
// boundary generator over the journaled units (validating each against
// the plan), rebuilds the sweep CPU from the last unit's arch state and
// materialized memory, restores the warmed structures and the fetch
// block, and carries on fast-forward + capture from the last unit's
// launch point. The continued unit stream is bit-identical to the tail
// of an uninterrupted sweep.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// partialExt names the on-disk partial-sweep journal of a key; the
// committed entry keeps storeExt, and eviction (which globs only
// storeExt) never sees journals.
const partialExt = ".partial"

// ResumeState is a reconstructed partial sweep: the journaled units, the
// last of which the sweep continues from. Feed it to CaptureStream via
// Params.Resume; the already-captured units are not re-emitted, so the
// consumer must account for them itself (the engine feeds them straight
// into its replay pipeline).
type ResumeState struct {
	// Units holds the journaled units in capture order, delta chains
	// intact.
	Units []*Unit
	// PopulationUnits echoes the journal's manifest.
	PopulationUnits uint64
}

// resumeSweep rebuilds the sweep execution state from a journaled
// partial: it replays gen over the journaled units (validating that the
// journal belongs to exactly this plan) and returns the CPU positioned
// at the journaled instruction count, with machine/warmer (when
// warming) restored to the last unit's warm state. Memory and warmer
// each hold a snapshot baseline there, as capturing the unit left them,
// so the next unit chains its deltas off it as in an uninterrupted sweep.
func resumeSweep(prog *program.Program, machine *uarch.Machine, warmer *uarch.Warmer, gen *boundaryGen, rs *ResumeState) (*functional.CPU, error) {
	for i, u := range rs.Units {
		b, ok := gen.next()
		if !ok || b.unit != u.Index || b.start != u.Start || b.launch != u.LaunchAt {
			return nil, fmt.Errorf("checkpoint: resume: journaled unit %d (population unit %d @%d) does not match the plan", i, u.Index, u.LaunchAt)
		}
	}
	last := rs.Units[len(rs.Units)-1]
	if last.Arch.Count != last.LaunchAt {
		return nil, fmt.Errorf("checkpoint: resume: journaled unit %d stopped at %d, not at its launch %d", last.Index, last.Arch.Count, last.LaunchAt)
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
		warmer.SetFetchBlock(last.LastIBlock, last.HaveIBlock)
		warmer.Snapshot(nil) // the baseline; once per resume, so dropped
	}
	// NewMemory shares the materialized image copy-on-write with the
	// journaled units, exactly as the uninterrupted sweep's memory
	// shared pages with the units it had captured.
	m := launch.Mem.NewMemory()
	m.Snapshot()
	return functional.NewAt(prog, last.Arch, m), nil
}

func (s *Store) partialPath(k Key) string {
	return filepath.Join(s.dir, k.Hash()+partialExt)
}

// LoadPartial loads the partial-sweep journal stored under k and
// reconstructs the sweep state to continue from, or nil when the store
// holds no usable journal (absent, or without one verified unit —
// damage degrades to the last unit verified before it, and is logged,
// never an error). Pass the result to CaptureStream via Params.Resume.
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
		k.Hash(), k.Workload, len(rs.Units), rs.Units[len(rs.Units)-1].LaunchAt)
	return rs, nil
}

// DropPartial removes k's partial-sweep journal, if any. A Commit of k
// calls it: the entry supersedes every journal of its key.
func (s *Store) DropPartial(k Key) {
	os.Remove(s.partialPath(k))
}

// readPartial returns the verified units of a sweep stream: a journal,
// or a committed entry, which is one with its End record.
func readPartial(r io.Reader, k Key) (*ResumeState, error) {
	cr, man, err := readKeyed(r, k)
	if err != nil {
		return nil, err
	}
	return resumable(scanRecords(cr, man, nil, nil))
}

// resumable is the partial readers' verdict on a scan: the units it
// verified, or why there are none. A defect after them only ended the
// scan: a journal is by construction a prefix of a crashed write, and
// each of its units is a resume point.
func resumable(set *Set, err error) (*ResumeState, error) {
	if len(set.Units) == 0 {
		if err == nil {
			err = errors.New("stream has no unit")
		}
		return nil, fmt.Errorf("no verified unit: %w", err)
	}
	return &ResumeState{Units: set.Units, PopulationUnits: set.PopulationUnits}, nil
}
