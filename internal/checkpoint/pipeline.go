package checkpoint

// The capture sweep's two stages. Functional warming reads nothing but
// the dynamic records the interpreter produces, in stream order, so the
// interpretation can run ahead on another core while the sweep goroutine
// warms: the interpreter stage owns the CPU and the boundary generator,
// executes the stream into a small fixed ring of record batches, and at
// each launch point captures the unit's architectural state and memory
// image inline in the batch it is filling; the warm stage (the calling
// goroutine, CaptureStream's loop) warms each batch in order and, at each
// inline launch point, takes the warm snapshot or delta and emits the
// unit. The interpreter records only the instructions warming acts on
// (functional.RunWarm: loads, stores, control and the first instruction
// of each new fetch block, about half of the stream, 44 % on gccx), so
// the ring's slack is counted in records, not instructions; what it
// leaves out, warming would skip. Warm state therefore ends each batch
// as it would interleaved with the interpreter, and every unit is the
// serial sweep's, bit for bit; a sweep costs max(interpret, warm) per
// instruction instead of their sum.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/freelist"
	"repro/internal/functional"
	"repro/internal/wallclock"
)

const (
	// batchRecs is how many records one batch holds. A batch is handed
	// to the warm stage when its records are full or it spans FFChunk
	// instructions, whichever comes first — one hand-off however many
	// launch points it holds, which matters on dense plans (a unit every
	// 1,000 instructions) where a hand-off per unit would dominate.
	batchRecs = 4096
	// ringBatches is the ring's length: 8 batches of 4,096 32-byte
	// records, 1 MB, small next to a sweep's snapshots. A warm stage that
	// falls behind stops the interpreter a ring ahead of it: 32k
	// records, about 74k instructions of gccx.
	ringBatches = 8
)

// rings keeps the rings of ended sweeps, keyed by whether they record,
// so a warmed sweep's 1 MB of record batches is allocated once per
// process rather than once per sweep.
var rings = freelist.New("capture ring", newRing)

// launchRec is a launch point the interpreter reached: the unit it
// captured there (geometry, architectural state, memory keyframe or
// delta, and the chain link) and how many of the batch's records precede
// it. The warm stage completes the unit with its warm state.
type launchRec struct {
	at int
	u  *Unit
}

// batch is one hand-off between the stages.
type batch struct {
	recs     []functional.DynRec // recs[:n] were recorded in this batch; nil on cold sweeps
	n        int
	start    uint64 // stream position at the batch's first instruction
	end      uint64 // and after its last (set when handed over)
	launches []launchRec
	// last marks the stream's final batch; err, then, is why it ended early.
	last bool
	err  error
}

// ring is the fixed ring of batches the stages exchange, in order. The
// interpreter fills slot filled%ringBatches while the warm stage drains
// slot drained%ringBatches. A full ring parks the interpreter until half
// of it is free again, so when the warm stage is the slower side — the
// usual case — the interpreter wakes once per half ring, not once per
// batch.
type ring struct {
	mu              sync.Mutex
	room, ready     sync.Cond // the interpreter waits on room, the warm stage on ready
	slots           [ringBatches]batch
	filled, drained int  // batches handed over and handed back, in total
	interpWaits     bool // the interpreter is parked on room
	stopped         bool // the warm stage quit: the interpreter returns
	// warmWait is the time the warm stage spent blocked on an empty
	// ring, interpPark the time the interpreter spent parked on a full
	// one. The clock is read only on those blocking paths.
	warmWait, interpPark time.Duration
}

func newRing(record bool) *ring {
	r := &ring{}
	r.room.L, r.ready.L = &r.mu, &r.mu
	if record {
		recs := make([]functional.DynRec, ringBatches*batchRecs)
		for i := range r.slots {
			r.slots[i].recs = recs[i*batchRecs : (i+1)*batchRecs : (i+1)*batchRecs]
		}
	}
	return r
}

// reset readies the ring for another sweep, keeping its record
// arrays: positions, flags and waits zeroed, the units and the error
// the last sweep left in its batches dropped.
func (r *ring) reset() {
	for i := range r.slots {
		b := &r.slots[i]
		clear(b.launches)
		*b = batch{recs: b.recs, launches: b.launches[:0]}
	}
	r.filled, r.drained, r.interpWaits, r.stopped = 0, 0, false, false
	r.warmWait, r.interpPark = 0, 0
}

// acquire returns the next free batch, emptied and starting at stream
// position pos, or nil once the warm stage has stopped. Interpreter side.
func (r *ring) acquire(pos uint64) *batch {
	r.mu.Lock()
	if !r.stopped && r.filled-r.drained == ringBatches {
		start := wallclock.Now()
		for !r.stopped && r.filled-r.drained == ringBatches {
			r.interpWaits = true
			r.room.Wait()
		}
		r.interpPark += wallclock.Since(start)
	}
	stopped := r.stopped
	r.mu.Unlock()
	if stopped {
		return nil
	}
	b := &r.slots[r.filled%ringBatches]
	clear(b.launches) // drop the emitted units
	b.n, b.start, b.launches, b.last, b.err = 0, pos, b.launches[:0], false, nil
	return b
}

// publish hands the batch being filled to the warm stage. Interpreter
// side.
func (r *ring) publish() {
	r.mu.Lock()
	r.filled++
	r.ready.Signal()
	r.mu.Unlock()
}

// take returns the next filled batch, waiting for the interpreter to
// hand it over. Warm-stage side; the batch is the caller's until release.
func (r *ring) take() *batch {
	r.mu.Lock()
	if r.filled == r.drained {
		start := wallclock.Now()
		for r.filled == r.drained {
			r.ready.Wait()
		}
		r.warmWait += wallclock.Since(start)
	}
	b := &r.slots[r.drained%ringBatches]
	r.mu.Unlock()
	return b
}

// release hands the batch take returned back to the interpreter. Warm-
// stage side.
func (r *ring) release() {
	r.mu.Lock()
	r.drained++
	if r.interpWaits && r.filled-r.drained <= ringBatches/2 {
		r.interpWaits = false
		r.room.Signal()
	}
	r.mu.Unlock()
}

// stop tells the interpreter to return at its next batch. Warm-stage
// side.
func (r *ring) stop() {
	r.mu.Lock()
	r.stopped = true
	r.room.Signal()
	r.mu.Unlock()
}

// interpreter is the interpreter stage's state.
type interpreter struct {
	cpu    *functional.CPU
	gen    *boundaryGen
	record bool // record the instructions the warm stage acts on
	// blockBits is the I-cache's block bits, by which a record marks the
	// first instruction of a new fetch block.
	blockBits uint
	// kf is the keyframe interval, captured the units captured so far
	// (journaled ones included), prev the last unit captured or journaled
	// — the next unit's chain predecessor (nil: the next unit is a
	// keyframe) — and lastMem the memory's snapshot sequence number.
	kf       int
	captured int
	prev     *Unit
	lastMem  uint64
}

// run executes the stream from boundary to boundary into r, capturing
// each reached launch point's unit inline, until the boundaries run out,
// the program ends, or the stream fails — the final batch says which —
// or the warm stage stops r.
func (in *interpreter) run(r *ring) {
	cpu := in.cpu
	b := r.acquire(cpu.Count)
	if b == nil {
		return
	}
	for {
		bd, ok := in.gen.next()
		if !ok {
			break
		}
		for cpu.Count < bd.launch && !cpu.Halted {
			if cpu.Count-b.start >= FFChunk || in.record && b.n == len(b.recs) {
				b.end = cpu.Count
				r.publish()
				if b = r.acquire(cpu.Count); b == nil {
					return
				}
			}
			step := min(bd.launch-cpu.Count, FFChunk-(cpu.Count-b.start))
			var err error
			if in.record {
				var k int
				k, _, err = cpu.RunWarm(b.recs[b.n:], step, in.blockBits)
				b.n += k
			} else {
				_, err = cpu.Run(step)
			}
			if err != nil {
				in.finish(r, b, fmt.Errorf("checkpoint: sweep to unit %d: %w", bd.unit, err))
				return
			}
		}
		if cpu.Halted || cpu.Count < bd.launch {
			break // program ended before this unit's launch point
		}
		u, err := in.capture(bd)
		if err != nil {
			in.finish(r, b, err)
			return
		}
		b.launches = append(b.launches, launchRec{at: b.n, u: u})
	}
	in.finish(r, b, nil)
}

// finish hands over b as the stream's last batch.
func (in *interpreter) finish(r *ring, b *batch, err error) {
	b.end, b.last, b.err = in.cpu.Count, true, err
	r.publish()
}

// capture builds the unit launching at the CPU's current position: its
// geometry, architectural state and memory — a full image on every kf-th
// captured unit and on the first one a cold sweep captures, else the
// dirty pages since its predecessor, which it links to. The warm stage
// applies the same rule to warm state (keyframe iff Mem is set).
func (in *interpreter) capture(bd boundary) (*Unit, error) {
	cpu := in.cpu
	u := &Unit{Index: bd.unit, Start: bd.start, LaunchAt: bd.launch, Arch: cpu.Arch()}
	if in.prev == nil || in.captured%in.kf == 0 {
		u.Mem = cpu.Mem.Snapshot()
		in.lastMem = cpu.Mem.Seq()
	} else {
		md, err := cpu.Mem.Delta(in.lastMem)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: unit %d: %w", bd.unit, err)
		}
		u.MemDelta, u.Prev = md, in.prev
		in.lastMem = md.Seq
	}
	in.prev = u
	in.captured++
	return u, nil
}
