package uarch_test

// Mechanism-level tests: each drives the core with a hand-built dynamic
// instruction stream (no functional simulator) and checks that one
// microarchitectural mechanism — width limits, dependence stalls, cache
// misses, MSHR limits, store-buffer backpressure, mispredict penalties,
// store-to-load forwarding — has its intended timing effect.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/uarch"
)

// streamSource replays a pre-built DynInst slice.
type streamSource struct {
	insts []functional.DynInst
	pos   int
}

func (s *streamSource) Next(d *functional.DynInst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*d = s.insts[s.pos]
	s.pos++
	return true
}

// stream builds DynInst sequences with consistent Seq/PC/NextPC. PCs
// wrap modulo pcWrap so the instruction footprint is loop-like and
// I-cache resident, as in real code; tests about the data side would
// otherwise drown in compulsory instruction misses.
type stream struct {
	insts []functional.DynInst
	pc    uint64
}

const pcWrap = 64

func (b *stream) add(in isa.Inst, ea uint64, taken bool, next uint64) {
	d := functional.DynInst{
		Seq:    uint64(len(b.insts)),
		PC:     b.pc,
		Inst:   in,
		EA:     ea,
		Taken:  taken,
		NextPC: next,
	}
	b.insts = append(b.insts, d)
	b.pc = next
}

func (b *stream) next() uint64 { return (b.pc + 1) % pcWrap }

func (b *stream) alu(dst, s1, s2 isa.Reg) {
	b.add(isa.Inst{Op: isa.OpAdd, Dst: dst, Src1: s1, Src2: s2}, 0, false, b.next())
}

func (b *stream) load(dst isa.Reg, ea uint64) {
	b.add(isa.Inst{Op: isa.OpLoad, Dst: dst, Src1: isa.RegZero}, ea, false, b.next())
}

func (b *stream) store(ea uint64) {
	b.add(isa.Inst{Op: isa.OpStore, Src1: isa.RegZero, Src2: isa.RegZero}, ea, false, b.next())
}

func (b *stream) branch(taken bool, target uint64) {
	next := b.next()
	if taken {
		next = target % pcWrap
	}
	b.add(isa.Inst{Op: isa.OpBne, Src1: 1, Src2: isa.RegZero, Target: uint32(target % pcWrap)}, 0, taken, next)
}

func (b *stream) source() *streamSource { return &streamSource{insts: b.insts} }

// run simulates the stream to completion on a fresh machine.
func run(t *testing.T, cfg uarch.Config, b *stream) uarch.RunStats {
	t.Helper()
	m := uarch.NewMachine(cfg)
	core := uarch.NewCore(m)
	stats, err := core.Run(b.source(), uint64(len(b.insts)), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Insts != uint64(len(b.insts)) {
		t.Fatalf("committed %d of %d", stats.Insts, len(b.insts))
	}
	return stats
}

// TestWidthBoundsIPC: fully independent ALU ops reach an IPC near the
// machine width.
func TestWidthBoundsIPC(t *testing.T) {
	cfg := uarch.Config8Way()
	b := &stream{}
	for i := 0; i < 60000; i++ {
		b.alu(isa.Reg(1+i%8), isa.RegZero, isa.RegZero)
	}
	stats := run(t, cfg, b)
	ipc := float64(stats.Insts) / float64(stats.Cycles)
	// The front end sustains FetchWidth; allow pipeline fill slack. With
	// 4 IntALUs the sustained bound is IntALU=4, not the full width.
	if ipc < 3.0 || ipc > 4.5 {
		t.Errorf("independent-ALU IPC %.2f, want ~4 (IntALU pool)", ipc)
	}
}

// TestDependenceChainSerializes: a serial chain commits ~1 per cycle.
func TestDependenceChainSerializes(t *testing.T) {
	cfg := uarch.Config8Way()
	b := &stream{}
	for i := 0; i < 30000; i++ {
		b.alu(1, 1, 1) // r1 = r1 + r1, fully serial
	}
	stats := run(t, cfg, b)
	cpi := float64(stats.Cycles) / float64(stats.Insts)
	if cpi < 0.95 || cpi > 1.15 {
		t.Errorf("serial-chain CPI %.2f, want ~1", cpi)
	}
}

// TestColdLoadPaysMemoryLatency: one dependent load chain over cold,
// conflict-free blocks pays roughly the memory latency per load.
func TestColdLoadPaysMemoryLatency(t *testing.T) {
	cfg := uarch.Config8Way()
	b := &stream{}
	const n = 500
	for i := 0; i < n; i++ {
		// Dependent chain: each load's result feeds an ALU op feeding the
		// next load's (nominal) address — model with a serial register.
		b.load(1, uint64(i)*4096+uint64(i/512)*64) // distinct pages: TLB pressure too
		b.alu(1, 1, 1)
	}
	// Serialize loads by making each ALU depend on the load and the next
	// load read r1 (our builder uses RegZero base, so serialize manually):
	for i := range b.insts {
		if b.insts[i].Inst.Op == isa.OpLoad {
			b.insts[i].Inst.Src1 = 1 // depends on previous ALU result
		}
	}
	stats := run(t, cfg, b)
	cyclesPerPair := float64(stats.Cycles) / n
	// Each pair costs ≥ memory latency (100) and typically a TLB walk
	// every new page; well under 2x that with overheads.
	if cyclesPerPair < 90 || cyclesPerPair > 700 {
		t.Errorf("cycles per dependent cold load %.1f, want O(mem latency)", cyclesPerPair)
	}
}

// TestMSHRLimitBoundsMLP: independent cold misses overlap up to the MSHR
// count; halving MSHRs should visibly increase runtime.
func TestMSHRLimitBoundsMLP(t *testing.T) {
	mkStream := func() *stream {
		b := &stream{}
		for i := 0; i < 4000; i++ {
			b.load(isa.Reg(1+i%8), uint64(i)*64) // distinct blocks, independent
		}
		return b
	}
	wide := uarch.Config8Way()
	wide.MSHRs = 8
	narrow := uarch.Config8Way()
	narrow.MSHRs = 1
	cWide := run(t, wide, mkStream())
	cNarrow := run(t, narrow, mkStream())
	if float64(cNarrow.Cycles) < 2*float64(cWide.Cycles) {
		t.Errorf("MSHR=1 (%d cycles) not much slower than MSHR=8 (%d cycles)",
			cNarrow.Cycles, cWide.Cycles)
	}
}

// TestStoreBufferBackpressure: a burst of cold-miss stores stalls commit
// when the store buffer is tiny.
func TestStoreBufferBackpressure(t *testing.T) {
	// Bursts of cold-miss stores separated by long compute stretches: a
	// deep store buffer absorbs each burst while a 1-entry buffer stalls
	// commit for the drain latency of every store. (Under *sustained*
	// store overload both sizes converge to the drain rate, so the burst
	// structure is what isolates the buffer's effect.)
	mkStream := func() *stream {
		b := &stream{}
		for burst := 0; burst < 20; burst++ {
			for s := 0; s < 8; s++ {
				b.store(uint64(burst*8+s) * 64) // distinct cold blocks
			}
			for a := 0; a < 4000; a++ {
				b.alu(isa.Reg(1+a%8), isa.RegZero, isa.RegZero)
			}
		}
		return b
	}
	big := uarch.Config8Way()
	big.StoreBufEntries = 64
	small := uarch.Config8Way()
	small.StoreBufEntries = 1
	cBig := run(t, big, mkStream())
	cSmall := run(t, small, mkStream())
	if float64(cSmall.Cycles) < 1.5*float64(cBig.Cycles) {
		t.Errorf("SB=1 (%d cycles) not slower than SB=64 (%d cycles)",
			cSmall.Cycles, cBig.Cycles)
	}
}

// TestMispredictPenaltyCharged: alternating branches on a cold predictor
// cost more than a monomorphic trained branch stream.
func TestMispredictPenaltyCharged(t *testing.T) {
	cfg := uarch.Config8Way()
	mono := &stream{}
	alt := &stream{}
	for i := 0; i < 3000; i++ {
		mono.alu(1, isa.RegZero, isa.RegZero)
		mono.branch(false, 0) // never taken: trivially predictable
		alt.alu(1, isa.RegZero, isa.RegZero)
		// Data-random direction defeats both predictor components.
		taken := (i*2654435761)%97 < 48
		alt.branch(taken, alt.pc+1) // target = fall-through either way
	}
	cMono := run(t, cfg, mono)
	cAlt := run(t, cfg, alt)
	if float64(cAlt.Cycles) < 1.3*float64(cMono.Cycles) {
		t.Errorf("hard branches (%d cycles) not slower than easy (%d cycles)",
			cAlt.Cycles, cMono.Cycles)
	}
}

// TestStoreToLoadForwarding: a load of a just-stored address bypasses
// the cache, so it runs much faster than the same pattern loading a
// different (cold) block each iteration.
func TestStoreToLoadForwarding(t *testing.T) {
	cfg := uarch.Config8Way()
	fwd := &stream{}
	nofwd := &stream{}
	for i := 0; i < 4000; i++ {
		ea := uint64(1 << 30)
		fwd.store(ea)
		fwd.load(1, ea) // forwarded from the in-flight store
		fwd.alu(2, 1, 1)
		nofwd.store(ea)
		nofwd.load(1, uint64(i)*64) // distinct cold block: no forwarding
		nofwd.alu(2, 1, 1)
	}
	f := run(t, cfg, fwd)
	n := run(t, cfg, nofwd)
	if float64(n.Cycles) < 1.5*float64(f.Cycles) {
		t.Errorf("cold loads (%d cycles) not slower than forwarded loads (%d cycles)",
			n.Cycles, f.Cycles)
	}
	// And the forwarded loop itself stays near pipeline speed (bounded by
	// store-buffer drain, far from the 100-cycle miss latency).
	if cpi := float64(f.Cycles) / float64(f.Insts); cpi > 4 {
		t.Errorf("forwarding CPI %.2f, want < 4", cpi)
	}
}

// TestROBLimitsOverlap: a window-sized block of independent work behind
// a long-latency load overlaps; beyond the window it cannot.
func TestROBLimitsOverlap(t *testing.T) {
	small := uarch.Config8Way()
	small.RUUSize = 16
	big := uarch.Config8Way()
	big.RUUSize = 256
	mkStream := func() *stream {
		b := &stream{}
		for i := 0; i < 200; i++ {
			b.load(1, uint64(i)*64+(1<<28)) // cold miss, 100 cycles
			for j := 0; j < 60; j++ {
				b.alu(isa.Reg(2+j%6), isa.RegZero, isa.RegZero) // independent filler
			}
		}
		return b
	}
	cSmall := run(t, small, mkStream())
	cBig := run(t, big, mkStream())
	if float64(cSmall.Cycles) < 1.2*float64(cBig.Cycles) {
		t.Errorf("RUU=16 (%d cycles) not slower than RUU=256 (%d cycles)",
			cSmall.Cycles, cBig.Cycles)
	}
}

// TestEnergyTracksActivity: memory-heavy streams burn more energy per
// instruction than ALU streams.
func TestEnergyTracksActivity(t *testing.T) {
	cfg := uarch.Config8Way()
	aluS := &stream{}
	memS := &stream{}
	for i := 0; i < 2000; i++ {
		aluS.alu(1, isa.RegZero, isa.RegZero)
		memS.load(1, uint64(i)*64)
	}
	a := run(t, cfg, aluS)
	m := run(t, cfg, memS)
	epiALU := a.EnergyNJ / float64(a.Insts)
	epiMem := m.EnergyNJ / float64(m.Insts)
	if epiMem < 2*epiALU {
		t.Errorf("memory EPI %.2f not >> ALU EPI %.2f", epiMem, epiALU)
	}
}

// TestResetPipelinePreservesWarmState: pipeline reset must not disturb
// caches or predictor (the property SMARTS mode-switching relies on).
func TestResetPipelinePreservesWarmState(t *testing.T) {
	cfg := uarch.Config8Way()
	m := uarch.NewMachine(cfg)
	core := uarch.NewCore(m)
	b := &stream{}
	for i := 0; i < 100; i++ {
		b.load(1, uint64(i)*64)
	}
	if _, err := core.Run(b.source(), 100, nil); err != nil {
		t.Fatal(err)
	}
	if !m.Hier.DL1.Probe(0) {
		t.Fatal("block 0 not resident after run")
	}
	core.ResetPipeline()
	if !m.Hier.DL1.Probe(0) {
		t.Error("ResetPipeline flushed the data cache")
	}
	// A rerun of the same addresses is now much faster (warm hits).
	b2 := &stream{}
	for i := 0; i < 100; i++ {
		b2.load(1, uint64(i)*64)
	}
	stats, err := core.Run(b2.source(), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cpi := float64(stats.Cycles) / 100; cpi > 10 {
		t.Errorf("warm rerun CPI %.1f, want small", cpi)
	}
}

// storeLoop is an endless stream of stores to a few hot lines, three in
// every four instructions, so that the window always holds stores in
// flight and the store buffer is always draining.
type storeLoop struct{ seq uint64 }

func (s *storeLoop) Next(d *functional.DynInst) bool {
	pc := s.seq % pcWrap
	*d = functional.DynInst{Seq: s.seq, PC: pc, NextPC: (pc + 1) % pcWrap}
	if s.seq%4 == 3 {
		d.Inst = isa.Inst{Op: isa.OpAdd, Dst: 1, Src1: 1, Src2: isa.RegZero}
	} else {
		d.Inst = isa.Inst{Op: isa.OpStore, Src1: isa.RegZero, Src2: 1}
		d.EA = 0x1000 + s.seq%32*8
	}
	s.seq++
	return true
}

// drainFinalizers runs a GC cycle and waits until a sentinel finalizer
// queued by that cycle has run, twice. A finalizer still queued when a
// measurement starts runs inside it on the finalizer goroutine, which
// allocates then (AllocsPerRun counts the whole process); the second
// round also drains what the first round's finalizers left unreachable.
func drainFinalizers() {
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		queueSentinel(done)
		runtime.GC()
		<-done
	}
}

// memProfile returns the objects allocated so far by stack, after a
// collection has published every allocation made before it
// (runtime.MemProfile reports as of the last completed cycle).
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	objs := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		objs[r.Stack0] += r.AllocObjects
	}
	return objs
}

// allocSites renders the stacks that allocated since the profile before
// was taken, one object count and stack each, leaving out the
// allocations of the profile helpers and of drainFinalizers.
func allocSites(before map[[32]uintptr]int64) string {
	var out strings.Builder
	for stack, objs := range memProfile() {
		if objs -= before[stack]; objs <= 0 {
			continue
		}
		var lines strings.Builder
		own := false
		frames := runtime.CallersFrames((&runtime.MemProfileRecord{Stack0: stack}).Stack())
		for {
			f, more := frames.Next()
			for _, helper := range []string{".memProfile", ".allocSites", ".drainFinalizers", ".queueSentinel"} {
				own = own || strings.Contains(f.Function, helper)
			}
			fmt.Fprintf(&lines, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		if !own {
			fmt.Fprintf(&out, "%d objects:\n%s", objs, lines.String())
		}
	}
	return out.String()
}

// queueSentinel allocates an object that is unreachable once it
// returns, whose finalizer closes done.
func queueSentinel(done chan struct{}) {
	s := new(struct{ _ *byte })
	runtime.SetFinalizer(s, func(*struct{ _ *byte }) { close(done) })
}

// TestStoreQueuesStayFixed: with a store always in flight the in-flight
// store list never empties, which used to let it grow without bound; it
// is an LSQSize ring, and a Run allocates nothing however long it is.
func TestStoreQueuesStayFixed(t *testing.T) {
	cfg := uarch.Config8Way()
	core := uarch.NewCore(uarch.NewMachine(cfg))
	src := &storeLoop{}
	// AllocsPerRun's warm-up call is kept short, so that it cannot grow
	// anything to the size the measured call needs. AllocsPerRun counts
	// the whole process's allocations, and a GC cycle ending inside the
	// long measured call allocates in its mark worker: finish any cycle
	// in flight, let the finalizers it queued run, and hold the next
	// cycle off until the measurement is done.
	// Every allocation is sampled, so that a nonzero count can name the
	// stacks that allocated (allocSites); the profile is taken first, as
	// its collection can queue finalizers too.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := memProfile()
	drainFinalizers()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := uint64(1000)
	allocs := testing.AllocsPerRun(1, func() {
		if stats, err := core.Run(src, n, nil); err != nil || stats.Insts != n {
			t.Fatalf("Run: %+v, %v", stats, err)
		}
		n = 1_000_000
	})
	if allocs != 0 {
		t.Errorf("Core.Run allocated %v times per 1M-instruction run, want 0; allocations since the measurement began, by stack:\n%s",
			allocs, allocSites(before))
	}
	if got := core.StoreRingCap(); got != cfg.LSQSize {
		t.Errorf("in-flight store ring holds %d entries, want LSQSize = %d", got, cfg.LSQSize)
	}
}
