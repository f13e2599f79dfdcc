package checkpoint

import (
	"sync"
	"sync/atomic"

	"repro/internal/delta"
	"repro/internal/freelist"
)

// warmArena holds the warm snapshots and deltas of one keyframe interval
// of a sweep whose units nothing retains (Params.Recycle): the interval's
// keyframe and every delta chained off it are carved from it, and
// nothing outside the interval points into it, because a Materializer's
// walk stops at the keyframe. It counts holds: the sweep holds it until
// it has pushed the interval's last unit (emit returned, so a journal
// that encodes in emit has encoded it) or the sweep ends, and each
// emitted unit holds it until its consumer calls Unit.Release. The last
// release returns it to arenas; a sweep or pool that stops early leaves
// the holds of its unlaunched units standing, and the GC takes the
// arena.
type warmArena struct {
	delta.Arena
	holds atomic.Int32
}

// arenaBudget bounds arenas in bytes: at most 64 MiB of warm arenas, and
// at most freelist.Bound() of them, outlive their sweeps in a process.
// An arena that would pass the budget on its own once grown (an interval
// of 64 sparse units of a large warm geometry) is left to the GC. A
// cold-sparse interval (gccx on the 8-way configuration, 64 units 166
// units apart) carves about 11 MB.
const arenaBudget = 64 << 20

// arenas keeps released warm arenas for the next interval, of this
// sweep or a later one.
var arenas = freelist.NewSized("warm arena", func(struct{}) *warmArena { return new(warmArena) },
	func(a *warmArena) int { return a.Bytes() }, arenaBudget)

// arenaPeak is the most any released arena carved, slab by slab: a
// released arena grows to it (and a quarter more), so every listed arena
// fits the largest interval the process has captured, whichever arena
// served it, and a steady stream of requests stops growing arenas.
var arenaPeak struct {
	sync.Mutex
	delta.Sizes
}

// poisonReleased makes a release overwrite the arena's slabs before it
// is listed (export_test.go), so a read of a released unit's warm state
// shows up as a wrong result instead of a stale but equal one.
var poisonReleased atomic.Bool

// openArena takes an arena for a new keyframe interval, held by the
// sweep.
func openArena() *warmArena {
	a := arenas.Get(struct{}{})
	a.holds.Store(1)
	return a
}

// slabs is where the interval's warm state is carved: nil (fresh
// arrays) for a sweep that does not recycle.
func (a *warmArena) slabs() *delta.Arena {
	if a == nil {
		return nil
	}
	return &a.Arena
}

// hold adds a hold for u, which is about to be emitted.
func (a *warmArena) hold(u *Unit) {
	a.holds.Add(1)
	u.arena = a
}

// release drops one hold; the last resets the arena and lists it.
func (a *warmArena) release() {
	if a.holds.Add(-1) != 0 {
		return
	}
	used := a.Used()
	if n := used.Bytes(); n+n/4 > arenaBudget {
		return // it would not be kept: do not grow it first
	}
	arenaPeak.Lock()
	arenaPeak.Sizes = arenaPeak.Max(used)
	fit := arenaPeak.Sizes
	arenaPeak.Unlock()
	a.Reset(fit)
	if poisonReleased.Load() {
		a.Poison()
	}
	arenas.Put(struct{}{}, a)
}

// Release drops the unit's hold on the arena its warm state was carved
// from, for a consumer of a recycling sweep (Params.Recycle) that has
// read that state for the last time: once every unit of the interval
// has been released and the sweep has moved past it, the arrays are
// reused and the unit's Warm and Delta, and those of every unit chained
// to the same keyframe, read as garbage. A unit of any other stream (a
// Set, a store read, a journal) holds nothing, and Release does nothing;
// neither does a second Release. Call it from the goroutine that owns
// the unit.
func (u *Unit) Release() {
	if a := u.arena; a != nil {
		u.arena = nil
		a.release()
	}
}
