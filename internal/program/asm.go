package program

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
)

// asm is a tiny single-pass assembler with label fixups and a bump
// allocator for the data image. Kernel emitters build on it.
type asm struct {
	name   string
	rng    *rand.Rand
	code   []isa.Inst
	segs   []Segment
	heap   uint64 // next free data address
	labels map[string]uint32
	fixups []fixup

	// dyn accumulates exact dynamic instruction counts as structured
	// emission proceeds; emitters add to it explicitly.
	dyn uint64
}

type fixup struct {
	pos   uint32
	label string
}

// dataBase is where the bump allocator starts. Code occupies a disjoint
// "address space" (instruction indices) so any nonzero base works; 16 MiB
// leaves room for red-zone gaps below.
const dataBase = 16 << 20

func newAsm(name string, seed int64) *asm {
	return &asm{
		name:   name,
		rng:    rand.New(rand.NewSource(seed)),
		heap:   dataBase,
		labels: make(map[string]uint32),
	}
}

// pc returns the index of the next instruction to be emitted.
func (a *asm) pc() uint32 { return uint32(len(a.code)) }

// emit appends one instruction and returns its index.
func (a *asm) emit(in isa.Inst) uint32 {
	a.code = append(a.code, in)
	return uint32(len(a.code) - 1)
}

// label binds name to the current position.
func (a *asm) label(name string) {
	if _, dup := a.labels[name]; dup {
		panic(fmt.Sprintf("asm %s: duplicate label %q", a.name, name))
	}
	a.labels[name] = a.pc()
}

// ref emits an instruction whose Target will be patched to label's
// position at finish time.
func (a *asm) ref(in isa.Inst, label string) uint32 {
	pos := a.emit(in)
	a.fixups = append(a.fixups, fixup{pos: pos, label: label})
	return pos
}

// finish resolves fixups and returns the assembled program.
func (a *asm) finish(entry uint64) (*Program, error) {
	for _, f := range a.fixups {
		tgt, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm %s: undefined label %q", a.name, f.label)
		}
		a.code[f.pos].Target = tgt
	}
	return New(a.name, a.code, a.segs, entry, a.dyn)
}

// alloc reserves size bytes in the data image, aligned to align (a power
// of two), and returns the base address. The region is zero-filled unless
// the caller attaches data via seg.
func (a *asm) alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	a.heap = (a.heap + align - 1) &^ (align - 1)
	base := a.heap
	a.heap += size
	// Red-zone gap so adjacent regions never share a cache block.
	a.heap += 256
	return base
}

// seg attaches initialized data at addr.
func (a *asm) seg(addr uint64, data []byte) {
	a.segs = append(a.segs, Segment{Addr: addr, Data: data})
}

// ---- Instruction helpers. None of these touch a.dyn: dynamic counts are
// accounted by the structured emitters in kernels.go, which know their
// iteration counts.

func (a *asm) li(d isa.Reg, v int64) {
	a.emit(isa.Inst{Op: isa.OpAddI, Dst: d, Src1: isa.RegZero, Imm: v})
}

func (a *asm) op3(op isa.Op, d, s1, s2 isa.Reg) {
	a.emit(isa.Inst{Op: op, Dst: d, Src1: s1, Src2: s2})
}

func (a *asm) opi(op isa.Op, d, s1 isa.Reg, imm int64) {
	a.emit(isa.Inst{Op: op, Dst: d, Src1: s1, Imm: imm})
}

func (a *asm) ld(d, base isa.Reg, off int64) {
	a.emit(isa.Inst{Op: isa.OpLoad, Dst: d, Src1: base, Imm: off})
}

func (a *asm) st(v, base isa.Reg, off int64) {
	a.emit(isa.Inst{Op: isa.OpStore, Src1: base, Src2: v, Imm: off})
}

func (a *asm) fld(d, base isa.Reg, off int64) {
	a.emit(isa.Inst{Op: isa.OpFLoad, Dst: d, Src1: base, Imm: off})
}

func (a *asm) fst(v, base isa.Reg, off int64) {
	a.emit(isa.Inst{Op: isa.OpFStore, Src1: base, Src2: v, Imm: off})
}

func (a *asm) br(op isa.Op, s1, s2 isa.Reg, label string) {
	a.ref(isa.Inst{Op: op, Src1: s1, Src2: s2}, label)
}

func (a *asm) jmp(label string) {
	a.ref(isa.Inst{Op: isa.OpJmp}, label)
}

func (a *asm) call(label string) {
	a.ref(isa.Inst{Op: isa.OpCall}, label)
}

func (a *asm) ret() { a.emit(isa.Inst{Op: isa.OpRet}) }

func (a *asm) jr(s isa.Reg) { a.emit(isa.Inst{Op: isa.OpJr, Src1: s}) }

func (a *asm) nop() { a.emit(isa.Inst{Op: isa.OpNop}) }

func (a *asm) halt() { a.emit(isa.Inst{Op: isa.OpHalt}) }

// uniqueLabel returns a label name unique within this assembly.
func (a *asm) uniqueLabel(prefix string) string {
	return fmt.Sprintf("%s_%d", prefix, a.pc())
}
