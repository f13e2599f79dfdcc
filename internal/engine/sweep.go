package engine

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Journal is where a sweep keeps its progress so that an interrupted
// sweep of the same key can be continued instead of restarted. The one
// production implementation is the store writer (*checkpoint.SetWriter),
// whose file is the journal until it commits as the entry; Sweep's
// tests keep a fake. An implementation logs its own failures; to Sweep,
// its only caller, an error means "stop journaling".
type Journal interface {
	// Load returns what an interrupted sweep left behind (nil: nothing
	// usable); Drop removes that after it failed plan validation with why.
	Load() *checkpoint.ResumeState
	Drop(why error)
	// Add records one emitted unit. Every unit is a resume point, so the
	// journal decides itself when to make what it holds durable.
	Add(u *checkpoint.Unit) error
	// Close keeps the journal for a later resume. Sweep calls it only when
	// the sweep ends incomplete: a complete sweep leaves the journal to
	// its caller, whose commit of the entry retires it.
	Close() error
}

// Sweep is the one way a unit stream is acquired from the functional
// sweep: the streaming run and the whole-set capture (local or on the
// fleet's coordinator) both come through here. It runs
// checkpoint.CaptureStream for p (the effective parameters,
// Options.SweepKey) and calls emit for every unit in stream order; emit
// returning false stops the sweep.
//
// With a journal (j non-nil) the sweep is resumable. What j.Load
// returns is continued, not restarted: its units are emitted first,
// resumed set — but only once CaptureStream has validated them against
// the plan, so a journal of some other plan emits nothing, is dropped,
// and the sweep restarts cold, once, if ctx is still alive. Every
// emitted unit is added to j. A sweep that ends incomplete — cancelled,
// stopped by emit, failed — closes j; a complete one leaves j open for
// the caller to retire.
//
// The Summary describes what ran (nil only for invalid p), the Timing
// what it measured; an incomplete sweep that ctx ended returns ctx.Err().
func Sweep(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, j Journal,
	emit func(cu *checkpoint.Unit, resumed bool) bool) (*checkpoint.Summary, wallclock.Timing, error) {
	if ctx == nil {
		ctx = context.Background()
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

	var sum *checkpoint.Summary
	var t wallclock.Timing
	var err error
	for {
		p.Resume = rs
		sum, t, err = checkpoint.CaptureStream(ctx, prog, cfg, p, func(cu *checkpoint.Unit) bool {
			if !fed && !feed() {
				return false
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
	if j != nil && !complete {
		// Interrupted: kept through the last emitted unit, so a rerun of
		// this key resumes there. A close failure is the journal's to log;
		// the sweep's outcome stands either way.
		_ = j.Close()
	}
	return sum, t, err
}
