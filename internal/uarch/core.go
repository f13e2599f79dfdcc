package uarch

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cacheline"
	"repro/internal/energy"
	"repro/internal/functional"
	"repro/internal/isa"
)

// InstSource supplies the committed-order dynamic instruction stream the
// core simulates timing for. The functional CPU (wrapped by Source) is
// the production implementation; tests use synthetic streams.
type InstSource interface {
	// Next fills d with the next dynamic instruction and reports whether
	// one was available.
	Next(d *functional.DynInst) bool
}

// Source adapts a functional CPU to InstSource.
type Source struct {
	CPU *functional.CPU
	// Err records the first architectural fault encountered, if any.
	Err error
}

// Next implements InstSource.
func (s *Source) Next(d *functional.DynInst) bool {
	if s.Err != nil {
		return false
	}
	if err := s.CPU.Step(d); err != nil {
		if err != functional.ErrHalted {
			s.Err = err
		}
		return false
	}
	return true
}

// tombstoneSeq marks freed ROB slots so stale producer references
// (slot, seq) from the register rename table never validate.
const tombstoneSeq = ^uint64(0)

// robEntry is one RUU slot. Everything the back end asks of the
// instruction — class, FU pool, latency, whether it writes a register —
// is decoded once at dispatch; issue and commit read flags, not opcodes.
type robEntry struct {
	seq uint64
	ea  uint64

	// doneCycle is the cycle the result is available; valid once issued.
	doneCycle uint64
	// readyAt is the latest doneCycle among the producers that have
	// issued so far; once pending reaches zero it is the first cycle
	// the entry may issue.
	readyAt uint64

	lat     int32 // execution latency; loads take theirs from the hierarchy
	pending uint8 // producers that have not issued yet
	pool    int8  // functional-unit pool, -1 none
	cls     isa.Class

	issued  bool
	mispred bool
	isLoad  bool
	isStore bool
	fwd     bool // load forwards from an older in-flight store
	writes  bool // writes an architectural register
	halt    bool
}

type fetchEntry struct {
	d       functional.DynInst
	readyAt uint64 // earliest dispatch cycle (fetch + decode depth)
	mispred bool
}

type storeRef struct {
	slot int32
	ea   uint64
}

type mshr struct {
	block   uint64
	release uint64
}

type sbEntry struct {
	ea       uint64
	draining bool
	release  uint64
}

// Mark requests measurement at a commit boundary: when the At'th
// instruction of a Run commits, Cycle and EnergyNJ are filled with the
// core's absolute cycle counter and energy meter reading.
type Mark struct {
	At       uint64
	Cycle    uint64
	EnergyNJ float64
}

// RunStats summarizes one Run call.
type RunStats struct {
	// Insts is the number of instructions committed.
	Insts uint64
	// Cycles is the number of cycles simulated by this run.
	Cycles uint64
	// EnergyNJ is the energy accumulated during this run.
	EnergyNJ float64
	// HaltSeen reports that the program's halt instruction committed.
	HaltSeen bool
}

// Core is the out-of-order pipeline. It owns only pipeline state;
// warmable structures (caches, predictor, energy meter) live in the
// Machine and persist across ResetPipeline.
//
// No stage walks the window (see the package comment). A dispatched
// entry waits in its producers' waiter bitmaps until they have all
// issued, then in the wake wheel until the cycle their values arrive,
// then in readyMask until issue width, a functional unit, a D-cache port
// and (for a load that misses) an MSHR are all free.
type Core struct {
	_     cacheline.Pad
	cfg   Config
	hier  *cache.Hierarchy
	pred  *bpred.Unit
	meter *energy.Meter

	cycle uint64

	// ROB ring buffer.
	rob        []robEntry
	head, tail int // slot indices; count tracks occupancy
	robCount   int
	lsqCount   int

	// Rename table: last writer of each register.
	lastWriterSlot [isa.NumRegs]int32
	lastWriterSeq  [isa.NumRegs]uint64

	// In-flight stores for load forwarding: an LSQSize ring in age order,
	// pushed at dispatch and popped at commit.
	stores     []storeRef
	storesHead int
	storesLen  int

	// Wakeup state. A bitmap over ROB slots is words uint64s.
	//
	// waiters[p*words:][:words] holds the slots that named slot p as a
	// producer while p had not issued; p clears it the moment it issues,
	// which is when its doneCycle becomes known.
	//
	// wheel[(t&wheelMask)*words:][:words] holds the slots whose producers
	// have all issued and whose readyAt is t, a cycle still in the future;
	// the wheel spans more cycles than any latency the configuration can
	// produce, so a bucket never holds two different cycles. wheelOcc has
	// one bit per bucket, set while the bucket is non-empty, so the next
	// wake is a find-first-set away.
	//
	// readyMask holds the unissued slots whose operands are available
	// now. Selection walks it oldest-first from the ROB head; a slot that
	// loses on a structural hazard keeps its bit and is retried next
	// cycle, so within a cycle the hierarchy and the meter see the same
	// calls in the same order as a scan of the whole window would make.
	words     int
	waiters   []uint64
	wheel     []uint64
	wheelMask uint64
	wheelOcc  []uint64
	readyMask []uint64

	// Fetch state.
	fetchQ       []fetchEntry
	fetchHead    int
	fetchCount   int
	lastIBlock   uint64
	haveIBlock   bool
	icacheStall  uint64 // fetch blocked until this cycle (I-miss)
	redirectAt   uint64 // fetch blocked until this cycle (mispredict resolution + penalty)
	blockedSeq   uint64 // seq of the unresolved mispredicted control inst
	blockedValid bool

	// Memory structures. The committed-store buffer is a ring; only its
	// head ever drains.
	mshrs  []mshr
	sb     []sbEntry
	sbHead int
	sbLen  int

	// Stream state.
	pending      functional.DynInst
	havePending  bool
	srcExhausted bool
	haltSeen     bool

	_ cacheline.Pad
}

// NewCore builds a core bound to a machine's warmable state.
func NewCore(m *Machine) *Core {
	words := (m.Cfg.RUUSize + 63) / 64
	horizon := m.Cfg.wakeHorizon()
	c := &Core{
		cfg:       m.Cfg,
		hier:      m.Hier,
		pred:      m.Pred,
		meter:     m.Meter,
		rob:       make([]robEntry, m.Cfg.RUUSize),
		fetchQ:    make([]fetchEntry, m.Cfg.FetchWidth*4),
		mshrs:     make([]mshr, m.Cfg.MSHRs),
		sb:        make([]sbEntry, m.Cfg.StoreBufEntries),
		stores:    make([]storeRef, m.Cfg.LSQSize),
		words:     words,
		waiters:   make([]uint64, m.Cfg.RUUSize*words),
		wheel:     make([]uint64, horizon*words),
		wheelMask: uint64(horizon - 1),
		wheelOcc:  make([]uint64, horizon/64),
		readyMask: make([]uint64, words),
	}
	c.ResetPipeline()
	return c
}

// Cycle returns the core's absolute cycle counter.
func (c *Core) Cycle() uint64 { return c.cycle }

// Reset returns the core to exactly the state NewCore built: an empty
// pipeline, every buffer entry zeroed (not merely unlinked) and the
// cycle counter at zero. Together with Machine.Reset it makes a reused
// core's next Run — cycles, marks, energy — identical to a new core's,
// which is what lets a replay worker launch every unit from one core.
func (c *Core) Reset() {
	c.cycle = 0
	clear(c.rob)
	clear(c.fetchQ)
	clear(c.stores)
	c.lastWriterSeq = [isa.NumRegs]uint64{}
	c.lastIBlock, c.blockedSeq = 0, 0
	c.pending = functional.DynInst{}
	c.ResetPipeline()
}

// ResetPipeline empties all pipeline state (ROB, LSQ, fetch queue, store
// buffer, MSHRs) without touching warmable structures or the cycle
// counter. The SMARTS controller calls it at each fast-forward boundary.
func (c *Core) ResetPipeline() {
	c.head, c.tail, c.robCount, c.lsqCount = 0, 0, 0, 0
	for i := range c.lastWriterSlot {
		c.lastWriterSlot[i] = -1
	}
	c.storesHead, c.storesLen = 0, 0
	clear(c.waiters)
	clear(c.wheel)
	clear(c.wheelOcc)
	clear(c.readyMask)
	c.fetchHead, c.fetchCount = 0, 0
	c.haveIBlock = false
	c.icacheStall, c.redirectAt = 0, 0
	c.blockedValid = false
	clear(c.mshrs)
	clear(c.sb)
	c.sbHead, c.sbLen = 0, 0
	c.havePending = false
	c.srcExhausted = false
	c.haltSeen = false
}

// stallLimit is the deadlock guard: Run fails once this many cycles pass
// without a commit.
const stallLimit = 2_000_000

// Run fetches up to n instructions from src, simulates until every
// fetched instruction has committed, and returns run statistics. Marks
// (sorted ascending by At) are filled at their commit boundaries.
//
// The instruction budget bounds *fetches*, so the architectural stream
// position after Run is exactly n instructions further along (unless the
// program halted first): the SMARTS controller relies on this to resume
// functional fast-forwarding at the sampling-unit boundary.
func (c *Core) Run(src InstSource, n uint64, marks []Mark) (RunStats, error) {
	startCycle := c.cycle
	startEnergy := c.meter.Snapshot()
	var fetched, committed uint64
	markIdx := 0
	for markIdx < len(marks) && marks[markIdx].At == 0 {
		marks[markIdx].Cycle = c.cycle
		marks[markIdx].EnergyNJ = c.meter.TotalNJ()
		markIdx++
	}

	lastCommitCycle := c.cycle

	for {
		// Retire.
		nCommitted := c.commit()
		if nCommitted > 0 {
			lastCommitCycle = c.cycle
		}
		for i := uint64(0); i < nCommitted; i++ {
			committed++
			for markIdx < len(marks) && marks[markIdx].At == committed {
				marks[markIdx].Cycle = c.cycle
				marks[markIdx].EnergyNJ = c.meter.TotalNJ()
				markIdx++
			}
		}

		if committed >= n || (c.srcExhausted && c.robCount == 0 && c.fetchCount == 0 && !c.havePending) {
			break
		}
		if c.cycle-lastCommitCycle > stallLimit {
			return RunStats{}, deadlockError(c.cycle)
		}

		active := nCommitted > 0
		active = c.drainStoreBuffer() || active
		active = c.issue() || active
		active = c.dispatch() || active
		if fetched < n {
			got, busy := c.fetchGroup(src, n-fetched)
			fetched += got
			active = active || busy
		}

		// A cycle in which no stage changed anything repeats itself until
		// one of the stages' time comparisons flips, so the core jumps to
		// that cycle. The meter is ticked once per cycle either way.
		step := uint64(1)
		if !active {
			step = c.idleSpan(lastCommitCycle + stallLimit + 1)
		}
		c.cycle += step
		c.meter.Tick(step)
	}

	// Unfilled marks (program ended early) get the final state.
	for ; markIdx < len(marks); markIdx++ {
		marks[markIdx].Cycle = c.cycle
		marks[markIdx].EnergyNJ = c.meter.TotalNJ()
	}

	if s, ok := src.(*Source); ok && s.Err != nil {
		return RunStats{}, s.Err
	}
	return RunStats{
		Insts:    committed,
		Cycles:   c.cycle - startCycle,
		EnergyNJ: c.meter.Since(startEnergy),
		HaltSeen: c.haltSeen,
	}, nil
}

// deadlockError reports that the deadlock guard tripped at cycle.
//
//simlint:coldpath the run is over; formats the one error Run's loop can raise
func deadlockError(cycle uint64) error {
	return fmt.Errorf("uarch: no commit for %d cycles at cycle %d (pipeline deadlock)", stallLimit, cycle)
}

// idleSpan is called after a cycle in which no stage changed anything
// and returns how many cycles to advance (at least one) to reach the
// next cycle that can differ: the earliest cycle after this one at which
// a comparison against the clock changes its answer — the ROB head
// completes, a slot's operands arrive, an MSHR that a ready load could
// merge with or claim is released, the draining store's write completes,
// the fetch-queue head leaves decode, the redirect penalty or the I-miss
// stall ends — or limit, where the deadlock guard fires. Naming a cycle
// at which nothing happens after all costs one stepped cycle and another
// call; missing one would skip work, so every comparison a stage makes
// against c.cycle must be listed here.
//
//simlint:hotpath
func (c *Core) idleSpan(limit uint64) uint64 {
	now, next := c.cycle, limit
	if c.robCount > 0 && c.rob[c.head].issued {
		next = sooner(next, now, c.rob[c.head].doneCycle)
	}
	if c.sbLen > 0 {
		// After drainStoreBuffer the head is always draining.
		next = sooner(next, now, c.sb[c.sbHead].release)
	}
	if c.fetchCount > 0 {
		next = sooner(next, now, c.fetchQ[c.fetchHead].readyAt)
	}
	next = sooner(next, now, c.redirectAt)
	next = sooner(next, now, c.icacheStall)
	var ready uint64
	for _, w := range c.readyMask {
		ready |= w
	}
	if ready != 0 {
		// Only loads that would miss with every MSHR busy can sit in
		// readyMask through an idle cycle.
		for i := range c.mshrs {
			next = sooner(next, now, c.mshrs[i].release)
		}
	}
	next = sooner(next, now, c.nextWake())
	return next - now
}

// sooner returns v if it lies after now and before next, else next.
//
//simlint:hotpath
func sooner(next, now, v uint64) uint64 {
	if v > now && v < next {
		return v
	}
	return next
}

// bucket returns the wake wheel's bitmap for cycle t.
//
//simlint:hotpath
func (c *Core) bucket(t uint64) []uint64 {
	i := int(t&c.wheelMask) * c.words
	return c.wheel[i : i+c.words]
}

// nextWake returns the first cycle after the current one whose wheel
// bucket is non-empty, or 0 if the wheel is empty. This cycle's bucket
// has been emptied by issue, so a full turn of the wheel from the next
// cycle's bucket covers every occupied one.
//
//simlint:hotpath
func (c *Core) nextWake() uint64 {
	start := (c.cycle + 1) & c.wheelMask
	word, bit := int(start>>6), uint(start&63)
	if m := c.wheelOcc[word] >> bit; m != 0 {
		return c.cycle + 1 + uint64(bits.TrailingZeros64(m))
	}
	ahead := uint64(64 - bit)
	for range c.wheelOcc {
		if word++; word == len(c.wheelOcc) {
			word = 0
		}
		// The last word visited is the first again, for the bits below
		// the starting one.
		if m := c.wheelOcc[word]; m != 0 {
			return c.cycle + 1 + ahead + uint64(bits.TrailingZeros64(m))
		}
		ahead += 64
	}
	return 0
}

// fetchGroup runs the fetch stage for one cycle: it pulls instructions
// from src and hands each to fetch until the group ends. It returns how
// many were consumed from the source and whether the stage changed any
// state. It is the one place the core calls through the InstSource
// interface, which is why the per-instruction work lives in fetch.
func (c *Core) fetchGroup(src InstSource, budget uint64) (consumed uint64, active bool) {
	if c.blockedValid || c.cycle < c.redirectAt || c.cycle < c.icacheStall {
		return 0, false
	}
	preds := c.cfg.PredsPerCycle
	for i := 0; i < c.cfg.FetchWidth && consumed < budget; i++ {
		if c.fetchCount == len(c.fetchQ) {
			break
		}
		if !c.havePending && c.srcExhausted {
			break
		}
		active = true
		if !c.havePending {
			if !src.Next(&c.pending) {
				c.srcExhausted = true
				break
			}
			c.havePending = true
		}
		took, more := c.fetch(&preds)
		if took {
			consumed++
		}
		if !more {
			break
		}
	}
	return consumed, active
}

// fetch moves the pending instruction into the fetch queue, charging the
// I-cache and the predictor. It reports whether the instruction was
// taken and whether the fetch group continues after it.
//
//simlint:hotpath
func (c *Core) fetch(preds *int) (took, more bool) {
	d := &c.pending

	// Instruction cache: one access per new block.
	iaddr := d.PC * isa.InstBytes
	iblock := iaddr >> c.cfg.IL1.BlockBits
	if !c.haveIBlock || iblock != c.lastIBlock {
		lat, lvl := c.hier.FetchAccess(iaddr)
		c.haveIBlock, c.lastIBlock = true, iblock
		c.meter.Add(energy.EvIL1, 1)
		c.chargeLevel(lvl)
		if lat > c.cfg.Lat.L1 {
			// Miss (or TLB walk): fetch stalls; the instruction is
			// consumed when the stall clears (block is now resident).
			c.icacheStall = c.cycle + uint64(lat-c.cfg.Lat.L1)
			return false, false
		}
	}

	mispred := false
	isControl := d.Inst.Op.IsControl()
	if isControl {
		if *preds == 0 {
			return false, false // prediction bandwidth exhausted this cycle
		}
		*preds--
		o := bpred.Outcome{
			Op: d.Inst.Op, PC: d.PC, Taken: d.Taken,
			Target: d.NextPC, NextPC: d.PC + 1,
		}
		p := c.pred.Predict(d.PC, d.Inst.Op)
		c.meter.Add(energy.EvBPred, 1)
		mispred = c.pred.CheckMispredict(p, o)
		c.pred.Update(o)
	}

	slot := c.fetchHead + c.fetchCount
	if slot >= len(c.fetchQ) {
		slot -= len(c.fetchQ)
	}
	fe := &c.fetchQ[slot]
	fe.d = *d
	fe.readyAt = c.cycle + uint64(c.cfg.DecodeDepth)
	fe.mispred = mispred
	c.fetchCount++
	c.havePending = false
	c.meter.Add(energy.EvFetch, 1)

	if mispred {
		// Front end follows the wrong path: model as bubbles until
		// the control instruction resolves at issue.
		c.blockedValid = true
		c.blockedSeq = d.Seq
		return true, false
	}
	// Redirected fetch: the group ends at a taken control.
	return true, !(isControl && d.Taken)
}

// dispatch moves decoded instructions into the ROB/LSQ, reporting whether
// any moved. Each one is decoded into its robEntry, looks its producers
// up in the rename table and the in-flight stores, and either registers
// as their waiter or, when they have all issued, is scheduled for the
// cycle their values arrive.
//
//simlint:hotpath
func (c *Core) dispatch() bool {
	moved := false
	for n := 0; n < c.cfg.DecodeWidth && c.fetchCount > 0; n++ {
		fe := &c.fetchQ[c.fetchHead]
		if fe.readyAt > c.cycle {
			break
		}
		if c.robCount == len(c.rob) {
			break
		}
		cls := fe.d.Inst.Op.Class()
		isMem := cls == isa.ClassLoad || cls == isa.ClassStore
		if isMem && c.lsqCount == c.cfg.LSQSize {
			break
		}

		slot := int32(c.tail)
		dst := fe.d.Inst.Writes()
		// Field by field: a composite literal would be built on the stack
		// and copied, and the copy stalls on the byte stores before it.
		// doneCycle is left stale; it is read only once issued is set.
		e := &c.rob[c.tail]
		e.seq, e.ea = fe.d.Seq, fe.d.EA
		e.readyAt, e.pending = 0, 0
		e.lat, e.pool, e.cls = int32(c.cfg.OpLat[cls]), fuPool(cls), cls
		e.issued, e.fwd = false, false
		e.mispred = fe.mispred
		e.isLoad, e.isStore = cls == isa.ClassLoad, cls == isa.ClassStore
		e.writes = dst != isa.RegZero
		e.halt = fe.d.Inst.Op == isa.OpHalt

		// Register dependences via the rename table.
		s1, s2 := fe.d.Inst.Reads()
		if s1 != isa.RegZero {
			if ps := c.lastWriterSlot[s1]; ps >= 0 && c.rob[ps].seq == c.lastWriterSeq[s1] {
				c.await(slot, e, ps)
			}
		}
		if s2 != isa.RegZero {
			if ps := c.lastWriterSlot[s2]; ps >= 0 && c.rob[ps].seq == c.lastWriterSeq[s2] {
				c.await(slot, e, ps)
			}
		}
		if dst != isa.RegZero {
			c.lastWriterSlot[dst] = slot
			c.lastWriterSeq[dst] = fe.d.Seq
		}

		// Memory dependence: youngest older store overlapping this load.
		if e.isLoad {
			for i := c.storesLen - 1; i >= 0; i-- {
				st := &c.stores[c.storesAt(i)]
				if absDiff(st.ea, e.ea) < 8 {
					e.fwd = true
					c.await(slot, e, st.slot)
					break
				}
			}
		}
		if e.isStore {
			// At most LSQSize stores are in flight: each holds an LSQ entry.
			c.stores[c.storesAt(c.storesLen)] = storeRef{slot: slot, ea: e.ea}
			c.storesLen++
		}
		if isMem {
			c.lsqCount++
		}
		if e.pending == 0 {
			c.schedule(slot, e.readyAt)
		}

		c.tail++
		if c.tail == len(c.rob) {
			c.tail = 0
		}
		c.robCount++
		c.fetchHead++
		if c.fetchHead == len(c.fetchQ) {
			c.fetchHead = 0
		}
		c.fetchCount--
		c.meter.Add(energy.EvDispatch, 1)
		moved = true
	}
	return moved
}

// storesAt returns the ring index of the i'th oldest in-flight store.
//
//simlint:hotpath
func (c *Core) storesAt(i int) int {
	i += c.storesHead
	if i >= len(c.stores) {
		i -= len(c.stores)
	}
	return i
}

// await makes the entry e in slot wait for the live producer in slot ps.
// A producer that has issued already has a doneCycle to fold into
// e.readyAt; one that has not gets e's bit in its waiter bitmap and
// delivers the doneCycle when it issues. Naming one producer twice
// (both source registers) counts once.
//
//simlint:hotpath
func (c *Core) await(slot int32, e *robEntry, ps int32) {
	if p := &c.rob[ps]; p.issued {
		e.readyAt = max(e.readyAt, p.doneCycle)
		return
	}
	w := &c.waiters[int(ps)*c.words+int(slot>>6)]
	if bit := uint64(1) << (slot & 63); *w&bit == 0 {
		*w |= bit
		e.pending++
	}
}

// schedule records that slot's operands are all available from cycle at:
// in readyMask if that cycle has come, else in the wheel bucket for it.
// Callers run at or after the current cycle's wake, so a slot scheduled
// for a cycle that has come is first considered by the next issue stage.
//
//simlint:hotpath
func (c *Core) schedule(slot int32, at uint64) {
	bit := uint64(1) << (slot & 63)
	if at <= c.cycle {
		c.readyMask[slot>>6] |= bit
		return
	}
	c.bucket(at)[slot>>6] |= bit
	b := at & c.wheelMask
	c.wheelOcc[b>>6] |= 1 << (b & 63)
}

// issue wakes the slots whose operands arrive this cycle, then selects
// from readyMask oldest-first and begins execution, reporting whether
// anything issued.
//
//simlint:hotpath
func (c *Core) issue() bool {
	if b := c.cycle & c.wheelMask; c.wheelOcc[b>>6]>>(b&63)&1 != 0 {
		c.wheelOcc[b>>6] &^= 1 << (b & 63)
		due := c.bucket(c.cycle)
		for i, w := range due {
			c.readyMask[i] |= w
			due[i] = 0
		}
	}
	var ready uint64
	for _, w := range c.readyMask {
		ready |= w
	}
	if ready == 0 {
		return false
	}

	issued := 0
	ports := c.cfg.DL1Ports
	fu := [4]int{c.cfg.IntALU, c.cfg.IntMulDiv, c.cfg.FPALU, c.cfg.FPMulDiv}

	// Age order is ring order from the head: the head's word from the
	// head's bit up, the following words, and last the head's word below
	// the head's bit.
	headWord, headBit := c.head>>6, uint(c.head)&63
	for i := 0; i <= c.words; i++ {
		wi := headWord + i
		if wi >= c.words {
			wi -= c.words
		}
		m := c.readyMask[wi]
		if i == 0 {
			m &= ^uint64(0) << headBit
		} else if i == c.words {
			m &= uint64(1)<<headBit - 1
		}
		for ; m != 0; m &= m - 1 {
			slot := int32(wi<<6 | bits.TrailingZeros64(m))
			if !c.tryIssue(slot, &ports, &fu) {
				continue
			}
			if issued++; issued == c.cfg.IssueWidth {
				return true
			}
		}
	}
	return issued > 0
}

// tryIssue attempts to issue the operand-ready entry in slot, reporting
// success. On success the entry's doneCycle is known, so its waiters are
// woken here rather than when the value appears: each has its readyAt
// raised to that cycle and, if this was its last unissued producer, is
// scheduled. Latencies are at least one cycle (Config.Validate), so a
// value is never usable in its producer's issue cycle and nothing woken
// here belongs in this cycle's selection.
//
//simlint:hotpath
func (c *Core) tryIssue(slot int32, ports *int, fu *[4]int) bool {
	e := &c.rob[slot]
	if e.pool >= 0 && fu[e.pool] == 0 {
		return false
	}

	lat := int(e.lat)
	if e.isLoad {
		if *ports == 0 {
			return false
		}
		if e.fwd {
			// Store-to-load forwarding: value bypasses the cache.
			lat = 1
			*ports--
		} else {
			l, ok := c.loadAccess(e.ea, ports)
			if !ok {
				return false // no MSHR free: retry next cycle
			}
			lat = l
		}
	}

	if e.pool >= 0 {
		fu[e.pool]--
	}
	e.issued = true
	e.doneCycle = c.cycle + uint64(lat)
	c.readyMask[slot>>6] &^= uint64(1) << (slot & 63)

	c.meter.Add(energy.EvIssue, 1)
	c.meter.Add(energy.EvRegRead, 2)
	c.chargeFU(e.cls)
	if e.mispred && c.blockedValid && c.blockedSeq == e.seq {
		// Resolution: front end restarts after the redirect penalty.
		c.redirectAt = e.doneCycle + uint64(c.cfg.MispredictPenalty)
		c.blockedValid = false
		c.meter.Add(energy.EvFlush, 1)
	}

	base := int(slot) * c.words
	for wi, m := range c.waiters[base : base+c.words] {
		if m == 0 {
			continue
		}
		c.waiters[base+wi] = 0
		for ; m != 0; m &= m - 1 {
			ws := int32(wi<<6 | bits.TrailingZeros64(m))
			w := &c.rob[ws]
			w.readyAt = max(w.readyAt, e.doneCycle)
			if w.pending--; w.pending == 0 {
				c.schedule(ws, w.readyAt)
			}
		}
	}
	return true
}

// loadAccess performs the timed D-cache access for a load, honoring MSHR
// occupancy and merging with outstanding misses to the same block. It
// reports (latency, ok); ok=false means issue must retry (MSHRs full).
//
//simlint:hotpath
func (c *Core) loadAccess(ea uint64, ports *int) (int, bool) {
	block := ea >> c.cfg.DL1.BlockBits
	// Merge with an outstanding miss to the same block: the load waits
	// for the in-flight fill rather than allocating a new MSHR.
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.release > c.cycle && m.block == block {
			*ports--
			c.meter.Add(energy.EvDL1, 1)
			return int(m.release - c.cycle), true
		}
	}
	// A genuine miss needs a free MSHR; find one before touching state.
	freeMSHR := -1
	for i := range c.mshrs {
		if c.mshrs[i].release <= c.cycle {
			freeMSHR = i
			break
		}
	}
	willMiss := !c.hier.DL1.Probe(ea)
	if willMiss && freeMSHR < 0 {
		return 0, false
	}
	*ports--
	lat, lvl := c.hier.DataAccess(ea, false)
	c.meter.Add(energy.EvDL1, 1)
	c.chargeLevel(lvl)
	if willMiss {
		c.mshrs[freeMSHR] = mshr{block: block, release: c.cycle + uint64(lat)}
	}
	return lat, true
}

// commit retires completed instructions in order, returning how many.
//
//simlint:hotpath
func (c *Core) commit() uint64 {
	var n uint64
	for int(n) < c.cfg.CommitWidth && c.robCount > 0 {
		e := &c.rob[c.head]
		if !e.issued || e.doneCycle > c.cycle {
			break
		}
		if e.isStore {
			if c.sbLen == len(c.sb) {
				break // store buffer full: commit stalls (paper Sec 4.4)
			}
			i := c.sbHead + c.sbLen
			if i >= len(c.sb) {
				i -= len(c.sb)
			}
			c.sb[i] = sbEntry{ea: e.ea}
			c.sbLen++
			// Stores commit in dispatch order: this one is the ring's head.
			c.storesHead = c.storesAt(1)
			c.storesLen--
			c.lsqCount--
		} else if e.isLoad {
			c.lsqCount--
		}
		if e.halt {
			c.haltSeen = true
		}
		c.meter.Add(energy.EvCommit, 1)
		if e.writes {
			c.meter.Add(energy.EvRegWrite, 1)
		}
		e.seq = tombstoneSeq
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.robCount--
		n++
	}
	return n
}

// drainStoreBuffer frees the head of the committed-store buffer once its
// write completes and starts writing the next one to the cache, one new
// drain per cycle. It reports whether it did either.
//
//simlint:hotpath
func (c *Core) drainStoreBuffer() bool {
	if c.sbLen == 0 {
		return false
	}
	if h := &c.sb[c.sbHead]; h.draining {
		if h.release > c.cycle {
			return false
		}
		*h = sbEntry{}
		c.sbHead++
		if c.sbHead == len(c.sb) {
			c.sbHead = 0
		}
		c.sbLen--
		if c.sbLen == 0 {
			return true
		}
	}
	// Begin draining the head: the write shares D-cache bandwidth but is
	// modelled on its own port (write buffer port).
	h := &c.sb[c.sbHead]
	block := h.ea >> c.cfg.DL1.BlockBits
	var lat int
	merged := false
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.release > c.cycle && m.block == block {
			lat = int(m.release - c.cycle)
			merged = true
			break
		}
	}
	if !merged {
		l, lvl := c.hier.DataAccess(h.ea, true)
		lat = l
		c.chargeLevel(lvl)
	}
	c.meter.Add(energy.EvDL1, 1)
	h.draining = true
	h.release = c.cycle + uint64(lat)
	return true
}

// chargeLevel records the energy of a hierarchy access beyond L1.
//
//simlint:hotpath
func (c *Core) chargeLevel(lvl cache.Level) {
	switch lvl {
	case cache.LevelL2:
		c.meter.Add(energy.EvL2, 1)
	case cache.LevelMem:
		c.meter.Add(energy.EvL2, 1)
		c.meter.Add(energy.EvMem, 1)
	}
}

// chargeFU records functional-unit energy by class.
//
//simlint:hotpath
func (c *Core) chargeFU(cls isa.Class) {
	switch cls {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassRet, isa.ClassStore:
		c.meter.Add(energy.EvIntALU, 1)
	case isa.ClassIntMul, isa.ClassIntDiv:
		c.meter.Add(energy.EvIntMul, 1)
	case isa.ClassFPALU:
		c.meter.Add(energy.EvFPALU, 1)
	case isa.ClassFPMul, isa.ClassFPDiv:
		c.meter.Add(energy.EvFPMul, 1)
	}
}

// fuPool maps an instruction class to its functional-unit pool index:
// 0 integer ALU (also control and store address generation), 1 integer
// multiply/divide, 2 FP ALU, 3 FP multiply/divide, -1 none required.
//
//simlint:hotpath
func fuPool(cls isa.Class) int8 {
	switch cls {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassRet, isa.ClassStore:
		return 0
	case isa.ClassIntMul, isa.ClassIntDiv:
		return 1
	case isa.ClassFPALU:
		return 2
	case isa.ClassFPMul, isa.ClassFPDiv:
		return 3
	}
	return -1
}

//simlint:hotpath
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
