package checkpoint

// The serial capture loop, kept as the reference the two-stage
// CaptureStream is compared against (capture_lockstep_test.go). It is
// CaptureStream as it stood before the interpreter moved to a stage of
// its own: one goroutine interprets and warms in turn, FFChunk
// instructions at a time, and captures each unit — architectural state,
// memory and warm state together — the moment the CPU reaches its
// launch point. It is slow and obviously right; the pipeline must emit
// the same units, bit for bit, and report the same Summary. Test-only:
// nothing outside this package's tests can call it.

import (
	"context"
	"fmt"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// SerialCaptureOracle is the serial reference for CaptureStream: same
// parameters, same emit contract, the same resume state on every unit.
func SerialCaptureOracle(ctx context.Context, prog *program.Program, cfg uarch.Config, p Params, emit func(*Unit) bool) (*Summary, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cpu := functional.New(prog)
	var warmer *uarch.Warmer
	var machine *uarch.Machine
	if p.FunctionalWarm {
		machine = uarch.NewMachine(cfg)
		warmer = uarch.NewWarmer(machine, cfg)
		if p.Components != nil {
			warmer.Components = *p.Components
		}
	}

	sum := &Summary{PopulationUnits: prog.Length / p.U}
	gen := newBoundaryGen(p, sum.PopulationUnits)
	var pos uint64 // instructions consumed from the stream so far

	// Delta-encoded snapshots: every kf-th captured unit is a full
	// keyframe, the units between carry deltas chained off it — dirty
	// memory pages always, dirty warm blocks when warming (see
	// Params.Keyframe). A resumed sweep's chain goes on from the last
	// journaled unit.
	kf := p.keyframe()
	var prevUnit *Unit // last captured unit (the chain predecessor)
	var lastSeq uint64 // the warmer's snapshot sequence number
	var lastMem uint64 // the memory's snapshot sequence number

	if rs := p.Resume; rs != nil && len(rs.Units) > 0 {
		var err error
		cpu, err = resumeSweep(prog, machine, warmer, gen, rs)
		if err != nil {
			return nil, err
		}
		pos = cpu.Count
		prevUnit, lastMem = rs.Units[len(rs.Units)-1], cpu.Mem.Seq()
		if warmer != nil {
			lastSeq = warmer.Seq()
		}
		sum.Captured = len(rs.Units)
		sum.ResumedAt = prevUnit.LaunchAt
	}

	sum.Complete = true
	for {
		if cerr := ctx.Err(); cerr != nil {
			sum.Complete = false
			sum.SweepInsts = cpu.Count
			return sum, cerr
		}
		b, ok := gen.next()
		if !ok {
			break
		}
		for pos < b.launch {
			step := b.launch - pos
			if step > FFChunk {
				step = FFChunk
			}
			target := pos + step
			var err error
			if warmer != nil {
				err = warmer.ForwardBatch(cpu, step)
			} else {
				_, err = cpu.Run(step)
			}
			if err != nil {
				sum.SweepInsts = cpu.Count
				return sum, fmt.Errorf("checkpoint: sweep to unit %d: %w", b.unit, err)
			}
			pos = cpu.Count
			if cpu.Halted || pos < target {
				break
			}
			if cerr := ctx.Err(); cerr != nil {
				sum.Complete = false
				sum.SweepInsts = cpu.Count
				return sum, cerr
			}
		}
		if cpu.Halted || cpu.Count < b.launch {
			break // program ended before this unit's launch point
		}

		u := &Unit{
			Index:    b.unit,
			Start:    b.start,
			LaunchAt: b.launch,
			Arch:     cpu.Arch(),
		}
		if prevUnit == nil || sum.Captured%kf == 0 {
			// Keyframe: full memory image and (when warming) warm state.
			u.Mem = cpu.Mem.Snapshot()
			lastMem = cpu.Mem.Seq()
			if machine != nil {
				snap := warmer.Snapshot(nil)
				u.Warm = &WarmState{Hier: snap.Hier, Pred: snap.Pred}
				lastSeq = snap.Seq
			}
		} else {
			md, derr := cpu.Mem.Delta(lastMem)
			if derr != nil {
				sum.SweepInsts = cpu.Count
				return sum, fmt.Errorf("checkpoint: unit %d: %w", b.unit, derr)
			}
			u.MemDelta = md
			u.Prev = prevUnit
			lastMem = md.Seq
			if machine != nil {
				d, derr := warmer.Delta(nil, lastSeq)
				if derr != nil {
					sum.SweepInsts = cpu.Count
					return sum, fmt.Errorf("checkpoint: unit %d: %w", b.unit, derr)
				}
				u.Delta = d
				lastSeq = d.Seq
			}
		}
		if warmer != nil {
			u.LastIBlock, u.HaveIBlock = warmer.FetchBlock()
		}
		prevUnit = u
		sum.Captured++
		if !emit(u) {
			sum.Complete = false
			break
		}
	}
	sum.SweepInsts = cpu.Count
	return sum, nil
}
