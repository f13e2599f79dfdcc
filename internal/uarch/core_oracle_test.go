package uarch_test

// The scan-based core, kept as the reference the production core is
// compared against (core_lockstep_test.go). It is the issue stage the
// event-driven core replaced, with the rest of the pipeline as it stood
// beside it: every cycle is stepped, and every cycle the issue stage
// walks the list of unissued ROB entries in age order asking each
// whether its producers' values have arrived. It is slow and obviously
// right; the production core must match it cycle for cycle and energy
// bit for energy bit. Test-only: nothing outside this package's tests
// can build it.

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/uarch"
)

// Entry states.
const (
	oracleDispatched uint8 = iota
	oracleIssued
)

// oracleTombstone marks freed ROB slots so stale producer references
// (slot, seq) from the register rename table never validate.
const oracleTombstone = ^uint64(0)

type oracleROBEntry struct {
	d       functional.DynInst
	state   uint8
	mispred bool
	isLoad  bool
	isStore bool

	doneCycle uint64

	// Producer references: slot into the ROB plus the producer's Seq for
	// validation (slots are recycled). Slot -1 means the operand was
	// ready at dispatch.
	src1Slot, src2Slot, memSlot int32
	src1Seq, src2Seq, memSeq    uint64
}

type oracleFetchEntry struct {
	d       functional.DynInst
	readyAt uint64 // earliest dispatch cycle (fetch + decode depth)
	mispred bool
}

type oracleStoreRef struct {
	slot int32
	seq  uint64
	ea   uint64
}

type oracleMSHR struct {
	block   uint64
	release uint64
}

type oracleSBEntry struct {
	ea       uint64
	draining bool
	release  uint64
}

// oracleCore is the stepped, scan-based pipeline over a machine's
// warmable state.
type oracleCore struct {
	cfg   uarch.Config
	hier  *cache.Hierarchy
	pred  *bpred.Unit
	meter *energy.Meter

	cycle uint64

	// ROB ring buffer.
	rob        []oracleROBEntry
	head, tail int // slot indices; count tracks occupancy
	robCount   int
	lsqCount   int

	// Rename table: last writer of each register.
	lastWriterSlot [isa.NumRegs]int32
	lastWriterSeq  [isa.NumRegs]uint64

	// In-flight stores for load forwarding, ordered by age; storesHead
	// indexes the oldest live entry (popped at commit).
	stores     []oracleStoreRef
	storesHead int

	// unissued lists ROB slots awaiting issue, in age order; the issue
	// stage walks all of it every cycle.
	unissued []int32

	// Fetch state.
	fetchQ       []oracleFetchEntry
	fetchHead    int
	fetchCount   int
	lastIBlock   uint64
	haveIBlock   bool
	icacheStall  uint64 // fetch blocked until this cycle (I-miss)
	redirectAt   uint64 // fetch blocked until this cycle (mispredict resolution + penalty)
	blockedSeq   uint64 // seq of the unresolved mispredicted control inst
	blockedValid bool

	// Memory structures.
	mshrs []oracleMSHR
	sb    []oracleSBEntry
	sbLen int

	// Stream state.
	pending      functional.DynInst
	havePending  bool
	srcExhausted bool
	haltSeen     bool

	// hits counts the mechanisms a stream exercised, so the lockstep
	// test can assert that its streams reached them.
	hits oracleHits
}

// oracleHits counts occurrences of the pipeline mechanisms whose order
// and timing the event-driven core has to reproduce.
type oracleHits struct {
	forwards  int // loads issued by store-to-load forwarding
	mshrMerge int // loads merged into an outstanding miss
	mshrFull  int // load issue attempts refused for want of an MSHR
	sbFull    int // commit attempts refused by a full store buffer
	iMiss     int // fetch stalls on an I-cache or I-TLB miss
	halts     int // committed halt instructions
	redirects int // mispredicted control instructions resolved
}

func (h *oracleHits) add(o oracleHits) {
	h.forwards += o.forwards
	h.mshrMerge += o.mshrMerge
	h.mshrFull += o.mshrFull
	h.sbFull += o.sbFull
	h.iMiss += o.iMiss
	h.halts += o.halts
	h.redirects += o.redirects
}

// newOracleCore builds a core bound to a machine's warmable state.
func newOracleCore(m *uarch.Machine) *oracleCore {
	c := &oracleCore{
		cfg:      m.Cfg,
		hier:     m.Hier,
		pred:     m.Pred,
		meter:    m.Meter,
		rob:      make([]oracleROBEntry, m.Cfg.RUUSize),
		fetchQ:   make([]oracleFetchEntry, m.Cfg.FetchWidth*4),
		mshrs:    make([]oracleMSHR, m.Cfg.MSHRs),
		sb:       make([]oracleSBEntry, m.Cfg.StoreBufEntries),
		stores:   make([]oracleStoreRef, 0, m.Cfg.LSQSize),
		unissued: make([]int32, 0, m.Cfg.RUUSize),
	}
	c.ResetPipeline()
	return c
}

// Cycle returns the core's absolute cycle counter.
func (c *oracleCore) Cycle() uint64 { return c.cycle }

// Reset returns the core to the state newOracleCore built.
func (c *oracleCore) Reset() {
	c.cycle = 0
	clear(c.rob)
	clear(c.fetchQ)
	clear(c.stores[:cap(c.stores)])
	clear(c.unissued[:cap(c.unissued)])
	c.lastWriterSeq = [isa.NumRegs]uint64{}
	c.lastIBlock, c.blockedSeq = 0, 0
	c.pending = functional.DynInst{}
	c.ResetPipeline()
}

// ResetPipeline empties the pipeline, keeping the cycle counter.
func (c *oracleCore) ResetPipeline() {
	c.head, c.tail, c.robCount, c.lsqCount = 0, 0, 0, 0
	for i := range c.lastWriterSlot {
		c.lastWriterSlot[i] = -1
	}
	c.stores = c.stores[:0]
	c.storesHead = 0
	c.unissued = c.unissued[:0]
	c.fetchHead, c.fetchCount = 0, 0
	c.haveIBlock = false
	c.icacheStall, c.redirectAt = 0, 0
	c.blockedValid = false
	for i := range c.mshrs {
		c.mshrs[i] = oracleMSHR{}
	}
	for i := range c.sb {
		c.sb[i] = oracleSBEntry{}
	}
	c.sbLen = 0
	c.havePending = false
	c.srcExhausted = false
	c.haltSeen = false
}

// Run fetches up to n instructions from src, simulates until every
// fetched instruction has committed, and returns run statistics. Marks
// (sorted ascending by At) are filled at their commit boundaries.
//
// The instruction budget bounds *fetches*, so the architectural stream
// position after Run is exactly n instructions further along (unless the
// program halted first): the SMARTS controller relies on this to resume
// functional fast-forwarding at the sampling-unit boundary.
func (c *oracleCore) Run(src uarch.InstSource, n uint64, marks []uarch.Mark) (uarch.RunStats, error) {
	startCycle := c.cycle
	startEnergy := c.meter.Snapshot()
	var fetched, committed uint64
	markIdx := 0
	for markIdx < len(marks) && marks[markIdx].At == 0 {
		marks[markIdx].Cycle = c.cycle
		marks[markIdx].EnergyNJ = c.meter.TotalNJ()
		markIdx++
	}

	const stallLimit = 2_000_000 // cycles without commit => deadlock guard
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
			return uarch.RunStats{}, fmt.Errorf("uarch: no commit for %d cycles at cycle %d (pipeline deadlock)", stallLimit, c.cycle)
		}

		c.drainStoreBuffer()
		c.issue()
		c.dispatch()
		if fetched < n {
			fetched += c.fetch(src, n-fetched)
		}

		c.cycle++
		c.meter.Tick(1)
	}

	// Unfilled marks (program ended early) get the final state.
	for ; markIdx < len(marks); markIdx++ {
		marks[markIdx].Cycle = c.cycle
		marks[markIdx].EnergyNJ = c.meter.TotalNJ()
	}

	if s, ok := src.(*uarch.Source); ok && s.Err != nil {
		return uarch.RunStats{}, s.Err
	}
	return uarch.RunStats{
		Insts:    committed,
		Cycles:   c.cycle - startCycle,
		EnergyNJ: c.meter.Since(startEnergy),
		HaltSeen: c.haltSeen,
	}, nil
}

// fetch brings up to budget instructions into the fetch queue and
// returns how many were consumed from the source.
func (c *oracleCore) fetch(src uarch.InstSource, budget uint64) uint64 {
	if c.blockedValid || c.cycle < c.redirectAt || c.cycle < c.icacheStall {
		return 0
	}
	var consumed uint64
	width := c.cfg.FetchWidth
	preds := c.cfg.PredsPerCycle
	for i := 0; i < width && consumed < budget; i++ {
		if c.fetchCount == len(c.fetchQ) {
			break
		}
		if !c.havePending {
			if c.srcExhausted || !src.Next(&c.pending) {
				c.srcExhausted = true
				break
			}
			c.havePending = true
		}
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
				c.hits.iMiss++
				break
			}
		}

		mispred := false
		isControl := d.Inst.Op.IsControl()
		if isControl {
			if preds == 0 {
				break // prediction bandwidth exhausted this cycle
			}
			preds--
			p := c.pred.Predict(d.PC, d.Inst.Op)
			c.meter.Add(energy.EvBPred, 1)
			mispred = c.pred.CheckMispredict(p, bpred.Outcome{
				Op: d.Inst.Op, PC: d.PC, Taken: d.Taken,
				Target: d.NextPC, NextPC: d.PC + 1,
			})
			c.pred.Update(bpred.Outcome{
				Op: d.Inst.Op, PC: d.PC, Taken: d.Taken,
				Target: d.NextPC, NextPC: d.PC + 1,
			})
		}

		slot := (c.fetchHead + c.fetchCount) % len(c.fetchQ)
		c.fetchQ[slot] = oracleFetchEntry{
			d:       *d,
			readyAt: c.cycle + uint64(c.cfg.DecodeDepth),
			mispred: mispred,
		}
		c.fetchCount++
		c.havePending = false
		consumed++
		c.meter.Add(energy.EvFetch, 1)

		if mispred {
			// Front end follows the wrong path: model as bubbles until
			// the control instruction resolves at issue.
			c.blockedValid = true
			c.blockedSeq = d.Seq
			break
		}
		if isControl && d.Taken {
			// Redirected fetch: the group ends at a taken control.
			break
		}
	}
	return consumed
}

// dispatch moves decoded instructions into the ROB/LSQ.
func (c *oracleCore) dispatch() {
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
		e := &c.rob[c.tail]
		*e = oracleROBEntry{
			d:        fe.d,
			state:    oracleDispatched,
			mispred:  fe.mispred,
			isLoad:   cls == isa.ClassLoad,
			isStore:  cls == isa.ClassStore,
			src1Slot: -1, src2Slot: -1, memSlot: -1,
		}

		// Register dependences via the rename table.
		s1, s2 := fe.d.Inst.Reads()
		if s1 != isa.RegZero {
			if ps := c.lastWriterSlot[s1]; ps >= 0 && c.rob[ps].d.Seq == c.lastWriterSeq[s1] {
				e.src1Slot, e.src1Seq = ps, c.lastWriterSeq[s1]
			}
		}
		if s2 != isa.RegZero {
			if ps := c.lastWriterSlot[s2]; ps >= 0 && c.rob[ps].d.Seq == c.lastWriterSeq[s2] {
				e.src2Slot, e.src2Seq = ps, c.lastWriterSeq[s2]
			}
		}
		if d := fe.d.Inst.Writes(); d != isa.RegZero {
			c.lastWriterSlot[d] = slot
			c.lastWriterSeq[d] = fe.d.Seq
		}

		// Memory dependence: youngest older store overlapping this load.
		if e.isLoad {
			for i := len(c.stores) - 1; i >= c.storesHead; i-- {
				st := c.stores[i]
				if oracleAbsDiff(st.ea, fe.d.EA) < 8 {
					e.memSlot, e.memSeq = st.slot, st.seq
					break
				}
			}
		}
		if e.isStore {
			c.stores = append(c.stores, oracleStoreRef{slot: slot, seq: fe.d.Seq, ea: fe.d.EA})
		}
		if isMem {
			c.lsqCount++
		}

		c.unissued = append(c.unissued, slot)
		c.tail = (c.tail + 1) % len(c.rob)
		c.robCount++
		c.fetchHead = (c.fetchHead + 1) % len(c.fetchQ)
		c.fetchCount--
		c.meter.Add(energy.EvDispatch, 1)
	}
}

// ready reports whether the producer referenced by (slot, seq) has
// produced its value by the current cycle.
func (c *oracleCore) ready(slot int32, seq uint64) bool {
	if slot < 0 {
		return true
	}
	p := &c.rob[slot]
	if p.d.Seq != seq {
		return true // producer committed; value long available
	}
	return p.state == oracleIssued && p.doneCycle <= c.cycle
}

// issue selects ready instructions oldest-first and begins execution.
// It walks the unissued-slot list (age ordered), compacting out the
// entries that issue this cycle.
func (c *oracleCore) issue() {
	issued := 0
	ports := c.cfg.DL1Ports
	fu := [4]int{c.cfg.IntALU, c.cfg.IntMulDiv, c.cfg.FPALU, c.cfg.FPMulDiv}

	w := 0
	for _, slot := range c.unissued {
		e := &c.rob[slot]
		if !c.tryIssue(e, &issued, &ports, &fu) {
			c.unissued[w] = slot
			w++
		}
	}
	c.unissued = c.unissued[:w]
}

// tryIssue attempts to issue one entry, reporting success.
func (c *oracleCore) tryIssue(e *oracleROBEntry, issued, ports *int, fu *[4]int) bool {
	if *issued >= c.cfg.IssueWidth {
		return false
	}
	if !c.ready(e.src1Slot, e.src1Seq) || !c.ready(e.src2Slot, e.src2Seq) {
		return false
	}
	if e.isLoad && !c.ready(e.memSlot, e.memSeq) {
		return false
	}

	cls := e.d.Inst.Op.Class()
	pool := oracleFUPool(cls)
	if pool >= 0 && fu[pool] == 0 {
		return false
	}

	var lat int
	switch {
	case e.isLoad:
		if *ports == 0 {
			return false
		}
		if e.memSlot >= 0 {
			// Store-to-load forwarding: value bypasses the cache.
			c.hits.forwards++
			lat = 1
			*ports--
		} else {
			l, ok := c.loadAccess(e.d.EA, ports)
			if !ok {
				return false // no MSHR free: retry next cycle
			}
			lat = l
		}
	case e.isStore:
		lat = c.cfg.OpLat[isa.ClassStore] // address generation only
	default:
		lat = c.cfg.OpLat[cls]
	}

	if pool >= 0 {
		fu[pool]--
	}
	e.state = oracleIssued
	e.doneCycle = c.cycle + uint64(lat)
	*issued++

	c.meter.Add(energy.EvIssue, 1)
	c.meter.Add(energy.EvRegRead, 2)
	c.chargeFU(cls)
	if e.mispred && c.blockedValid && c.blockedSeq == e.d.Seq {
		// Resolution: front end restarts after the redirect penalty.
		c.redirectAt = e.doneCycle + uint64(c.cfg.MispredictPenalty)
		c.blockedValid = false
		c.hits.redirects++
		c.meter.Add(energy.EvFlush, 1)
	}
	return true
}

// loadAccess performs the timed D-cache access for a load, honoring MSHR
// occupancy and merging with outstanding misses to the same block. It
// reports (latency, ok); ok=false means issue must retry (MSHRs full).
func (c *oracleCore) loadAccess(ea uint64, ports *int) (int, bool) {
	block := ea >> c.cfg.DL1.BlockBits
	// Merge with an outstanding miss to the same block: the load waits
	// for the in-flight fill rather than allocating a new MSHR.
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.release > c.cycle && m.block == block {
			c.hits.mshrMerge++
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
		c.hits.mshrFull++
		return 0, false
	}
	*ports--
	lat, lvl := c.hier.DataAccess(ea, false)
	c.meter.Add(energy.EvDL1, 1)
	c.chargeLevel(lvl)
	if willMiss {
		c.mshrs[freeMSHR] = oracleMSHR{block: block, release: c.cycle + uint64(lat)}
	}
	return lat, true
}

// commit retires completed instructions in order, returning how many.
func (c *oracleCore) commit() uint64 {
	var n uint64
	for int(n) < c.cfg.CommitWidth && c.robCount > 0 {
		e := &c.rob[c.head]
		if e.state != oracleIssued || e.doneCycle > c.cycle {
			break
		}
		if e.isStore {
			if c.sbLen == len(c.sb) {
				c.hits.sbFull++
				break // store buffer full: commit stalls (paper Sec 4.4)
			}
			c.sb[c.sbLen] = oracleSBEntry{ea: e.d.EA}
			c.sbLen++
		}
		if e.d.Inst.Op == isa.OpHalt {
			c.haltSeen = true
			c.hits.halts++
		}
		cls := e.d.Inst.Op.Class()
		if cls == isa.ClassLoad || cls == isa.ClassStore {
			c.lsqCount--
		}
		if e.isStore && c.storesHead < len(c.stores) && c.stores[c.storesHead].seq == e.d.Seq {
			c.storesHead++
			if c.storesHead == len(c.stores) {
				c.stores = c.stores[:0]
				c.storesHead = 0
			}
		}
		c.meter.Add(energy.EvCommit, 1)
		if e.d.Inst.Writes() != isa.RegZero {
			c.meter.Add(energy.EvRegWrite, 1)
		}
		e.d.Seq = oracleTombstone
		c.head = (c.head + 1) % len(c.rob)
		c.robCount--
		n++
	}
	return n
}

// drainStoreBuffer writes the oldest committed store to the cache, one
// new drain per cycle, and frees completed entries.
func (c *oracleCore) drainStoreBuffer() {
	// Free the head once its write completes.
	for c.sbLen > 0 && c.sb[0].draining && c.sb[0].release <= c.cycle {
		copy(c.sb[:c.sbLen-1], c.sb[1:c.sbLen])
		c.sbLen--
		c.sb[c.sbLen] = oracleSBEntry{}
	}
	if c.sbLen == 0 || c.sb[0].draining {
		return
	}
	// Begin draining the head: the write shares D-cache bandwidth but is
	// modelled on its own port (write buffer port).
	ea := c.sb[0].ea
	block := ea >> c.cfg.DL1.BlockBits
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
		l, lvl := c.hier.DataAccess(ea, true)
		lat = l
		c.chargeLevel(lvl)
	}
	c.meter.Add(energy.EvDL1, 1)
	c.sb[0].draining = true
	c.sb[0].release = c.cycle + uint64(lat)
}

// chargeLevel records the energy of a hierarchy access beyond L1.
func (c *oracleCore) chargeLevel(lvl cache.Level) {
	switch lvl {
	case cache.LevelL2:
		c.meter.Add(energy.EvL2, 1)
	case cache.LevelMem:
		c.meter.Add(energy.EvL2, 1)
		c.meter.Add(energy.EvMem, 1)
	}
}

// chargeFU records functional-unit energy by class.
func (c *oracleCore) chargeFU(cls isa.Class) {
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

// oracleFUPool maps an instruction class to its functional-unit pool index:
// 0 integer ALU (also control and store address generation), 1 integer
// multiply/divide, 2 FP ALU, 3 FP multiply/divide, -1 none required.
func oracleFUPool(cls isa.Class) int {
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

func oracleAbsDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
