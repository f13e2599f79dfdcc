package engine

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Journal is where a sweep keeps its progress so that an interrupted
// sweep of the same key can be continued instead of restarted. There are
// two implementations because the place differs, not the algorithm: the
// store's partial file (*checkpoint.PartialWriter) and the fleet
// coordinator's journal endpoints (internal/dist). Each logs its own
// failures; to Sweep, its only caller, an error means "stop journaling".
type Journal interface {
	// Load returns what an interrupted sweep left behind (nil: nothing
	// usable); Drop removes that after it failed plan validation with why.
	Load() *checkpoint.ResumeState
	Drop(why error)
	// Add records one emitted unit; Checkpoint makes the units added so
	// far durable under fr, the sweep state pinned after the last of them.
	Add(u *checkpoint.Unit) error
	Checkpoint(fr checkpoint.ResumeFrame) error
	// Close keeps the journal as of its last Checkpoint for a later
	// resume; Discard removes it once a completed sweep supersedes it.
	Close() error
	Discard()
}

// DefaultResumeInterval is the journal cadence used when the resume
// interval is zero: one journal commit every 4 keyframes keeps the
// journal I/O a small fraction of capture while bounding the replay
// window an interruption loses to a few keyframe intervals of units.
const DefaultResumeInterval = 4

// journalEvery is the one rule for whether a sweep is journaled and how
// often under a resume-interval setting (Options.ResumeInterval,
// dist.WorkerOptions.ResumeInterval): the cadence in keyframes, 0
// selecting DefaultResumeInterval. A negative interval yields 0: the
// journal is neither loaded nor written.
func journalEvery(interval int) int {
	switch {
	case interval < 0:
		return 0
	case interval == 0:
		return DefaultResumeInterval
	}
	return interval
}

// Sweep is the one way a unit stream is acquired from the functional
// sweep: the streaming run, the whole-set capture and the fleet's sweep
// owner all come through here. It runs checkpoint.CaptureStream for p
// (the effective parameters, Options.SweepKey) and calls emit for every
// unit in stream order; emit returning false stops the sweep.
//
// With a journal (j non-nil and journalEvery(interval) > 0) the sweep
// is resumable. What j.Load returns is continued, not restarted: its
// units are emitted first, resumed set — but only once CaptureStream has
// validated them against the plan, so a journal of some other plan emits
// nothing, is dropped, and the sweep restarts cold, once, if ctx is still
// alive. Every emitted unit is added to j, which is checkpointed at the
// frame after every interval-th newly captured keyframe. A sweep that
// ends incomplete — cancelled, stopped by emit, failed — checkpoints j
// through the last emitted unit and keeps it; a complete one discards it.
//
// The Summary describes what ran (nil only for invalid p); an incomplete
// sweep that ctx ended returns ctx.Err().
func Sweep(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, j Journal, interval int,
	emit func(cu *checkpoint.Unit, resumed bool) bool) (*checkpoint.Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	every := journalEvery(interval)
	if every == 0 {
		j = nil
	}
	var rs *checkpoint.ResumeState
	if j != nil {
		rs = j.Load()
	}
	// push emits one unit and, once the consumer has taken it, journals
	// it — a resumed sweep's units too, so the new journal stands alone.
	push := func(cu *checkpoint.Unit, resumed bool) bool {
		if !emit(cu, resumed) {
			return false
		}
		if j != nil && j.Add(cu) != nil {
			j = nil
		}
		return true
	}
	// feed emits the journaled units, ahead of the first newly captured
	// one — that is, after CaptureStream validated the journal.
	fed := rs == nil
	feed := func() bool {
		fed = true
		for _, cu := range rs.Units {
			if ctx.Err() != nil || !push(cu, true) {
				return false
			}
		}
		return true
	}
	kfSince := 0 // keyframes captured since the last journal commit
	var last checkpoint.ResumeFrame
	pending := false // last is not yet in the journal
	p.OnFrame = func(fr checkpoint.ResumeFrame) {
		last, pending = fr, true
		if j != nil && kfSince >= every {
			if j.Checkpoint(fr) != nil {
				j = nil
			} else {
				kfSince, pending = 0, false
			}
		}
	}

	var sum *checkpoint.Summary
	var err error
	for {
		p.Resume = rs
		sum, err = checkpoint.CaptureStream(ctx, prog, cfg, p, func(cu *checkpoint.Unit) bool {
			if !fed && !feed() {
				return false
			}
			if cu.Mem != nil {
				kfSince++
			}
			return push(cu, false)
		})
		if err == nil || rs == nil || fed || ctx.Err() != nil {
			break
		}
		// The journal failed validation before anything was emitted: drop
		// it and sweep cold rather than fail a run that can still complete.
		j.Drop(err)
		rs, fed = nil, true
	}
	if err == nil && sum.Complete && !fed {
		// The journal covered every boundary, so nothing was captured and
		// the journaled units are emitted here.
		sum.Complete = feed()
	}
	complete := err == nil && sum.Complete
	if err == nil && !complete {
		err = ctx.Err() // nil when emit stopped the sweep on its own account
	}
	switch {
	case j == nil: // not journaled, or the journal failed on the way
	case complete:
		j.Discard()
	case !pending || j.Checkpoint(last) == nil:
		// Interrupted: committed through the last emitted unit and kept,
		// so a rerun of this key resumes here. A close failure is the
		// journal's to log; the sweep's outcome stands either way.
		_ = j.Close()
	}
	return sum, err
}
