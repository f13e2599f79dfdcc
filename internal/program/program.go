// Package program defines executable workloads for the simulators: the
// Program container, a small assembler used to build programs, a library
// of parameterized kernels (streaming, pointer-chasing, branchy integer
// code, FP stencils, indirect dispatch, …), and a 16-entry synthetic
// benchmark suite whose members are archetypes of SPEC CPU2000 behaviour.
//
// Programs carry their exact dynamic instruction count, computed by
// construction while the generator emits code. The functional simulator
// verifies this invariant in tests; the SMARTS controller relies on it to
// derive the sampling population size N without a profiling pre-pass.
package program

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Segment is a chunk of the initial memory image.
type Segment struct {
	Addr uint64
	Data []byte
}

// Program is a complete executable workload: code, initial memory image,
// and metadata.
//
// A Program is immutable once built (by Generate, Load, New or a
// composite literal): it derives its Digest, Image and Predecoded code
// once, on first use, and every later caller shares them, so a write to
// a field or to an element of one after that would leave them stale.
// The fields stay exported for reading; simlint's immutable rule
// rejects writes to them, and by-value copies of a Program, outside
// this package.
//
//simlint:immutable
type Program struct {
	// Name identifies the workload (e.g. "mcfx").
	Name string
	// Code is the instruction memory, indexed by PC.
	Code []isa.Inst
	// Segs is the initial data image.
	Segs []Segment
	// Entry is the initial PC.
	Entry uint64
	// Length is the exact dynamic instruction count from Entry to Halt,
	// computed by construction during generation.
	Length uint64

	derived derived
}

// derived holds what a Program computes from its fields once: each
// value is filled by its sync.Once on first use and read-only after.
// The Onces also make `go vet` reject a by-value copy of a Program.
type derived struct {
	digestOnce sync.Once
	digest     [sha256.Size]byte

	imageOnce sync.Once
	image     *mem.Image

	decOnce sync.Once
	dec     []isa.DecInst
}

// digestHook, when set, is called each time Digest hashes a program
// (tests count hashes with it).
var digestHook func()

// New builds a program from its parts and validates it. The program
// takes ownership of code and segs: neither may be written afterwards.
func New(name string, code []isa.Inst, segs []Segment, entry, length uint64) (*Program, error) {
	p := &Program{Name: name, Code: code, Segs: segs, Entry: entry, Length: length}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Digest returns the SHA-256 of the program's Save serialization: its
// exact code, initial image, entry and length. The first call hashes
// the program; later calls return the memo.
func (p *Program) Digest() [sha256.Size]byte {
	p.derived.digestOnce.Do(func() {
		if digestHook != nil {
			digestHook()
		}
		h := sha256.New()
		// Save reports only its writer's errors, and a hash never fails
		// a write.
		_ = p.Save(h)
		copy(p.derived.digest[:], h.Sum(nil))
	})
	return p.derived.digest
}

// Image returns the program's initial memory image, built on first use.
// Every CPU starts from it through Image().NewMemory(), sharing its
// pages copy-on-write, so starting a CPU costs a page table, not a copy
// of the data.
func (p *Program) Image() *mem.Image {
	p.derived.imageOnce.Do(func() {
		m := mem.New()
		for _, s := range p.Segs {
			m.WriteBytes(s.Addr, s.Data)
		}
		p.derived.image = m.Snapshot()
	})
	return p.derived.image
}

// Predecoded returns the program's code in the dense pre-decoded form
// the batch interpreter executes (isa.Predecode), built on first use.
// The slice is shared by every CPU running the program: read-only.
func (p *Program) Predecoded() []isa.DecInst {
	p.derived.decOnce.Do(func() {
		p.derived.dec = isa.Predecode(p.Code)
	})
	return p.derived.dec
}

// DataBytes returns the total size of the initial image.
func (p *Program) DataBytes() uint64 {
	var n uint64
	for _, s := range p.Segs {
		n += uint64(len(s.Data))
	}
	return n
}

// Validate checks structural invariants: entry and all direct control
// targets are within the code, register fields are in range.
func (p *Program) Validate() error {
	n := uint32(len(p.Code))
	if p.Entry >= uint64(n) {
		return fmt.Errorf("program %s: entry %d outside code (%d insts)", p.Name, p.Entry, n)
	}
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("program %s: invalid opcode at %d", p.Name, pc)
		}
		if in.Dst >= isa.NumRegs || in.Src1 >= isa.NumRegs || in.Src2 >= isa.NumRegs {
			return fmt.Errorf("program %s: register out of range at %d: %v", p.Name, pc, in)
		}
		switch in.Op.Class() {
		case isa.ClassBranch, isa.ClassJump:
			if in.Target >= n {
				return fmt.Errorf("program %s: target %d outside code at %d", p.Name, in.Target, pc)
			}
		}
	}
	return nil
}

// Serialization format version and magic for Save/Load.
const (
	magic   = 0x534d5254 // "SMRT"
	version = 1
)

// Save writes the program in a self-describing binary format.
func (p *Program) Save(w io.Writer) error {
	var hdr [4]uint64
	hdr[0] = magic
	hdr[1] = version
	hdr[2] = p.Entry
	hdr[3] = p.Length
	if err := binary.Write(w, binary.LittleEndian, hdr[:]); err != nil {
		return fmt.Errorf("program: save header: %w", err)
	}
	if err := writeString(w, p.Name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(p.Code))); err != nil {
		return err
	}
	buf := make([]byte, isa.EncodedSize)
	for _, in := range p.Code {
		in.Encode(buf)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("program: save code: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(p.Segs))); err != nil {
		return err
	}
	for _, s := range p.Segs {
		if err := binary.Write(w, binary.LittleEndian, s.Addr); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(s.Data))); err != nil {
			return err
		}
		if _, err := w.Write(s.Data); err != nil {
			return fmt.Errorf("program: save segment: %w", err)
		}
	}
	return nil
}

// Load reads a program written by Save.
func Load(r io.Reader) (*Program, error) {
	var hdr [4]uint64
	if err := binary.Read(r, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("program: load header: %w", err)
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("program: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("program: unsupported version %d", hdr[1])
	}
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	var nCode uint64
	if err := binary.Read(r, binary.LittleEndian, &nCode); err != nil {
		return nil, err
	}
	const maxCode = 1 << 26
	if nCode > maxCode {
		return nil, fmt.Errorf("program: unreasonable code size %d", nCode)
	}
	code := make([]isa.Inst, nCode)
	buf := make([]byte, isa.EncodedSize)
	for i := range code {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("program: load code: %w", err)
		}
		if code[i], err = isa.Decode(buf); err != nil {
			return nil, err
		}
	}
	var nSegs uint64
	if err := binary.Read(r, binary.LittleEndian, &nSegs); err != nil {
		return nil, err
	}
	const maxSegs = 1 << 20
	if nSegs > maxSegs {
		return nil, fmt.Errorf("program: unreasonable segment count %d", nSegs)
	}
	segs := make([]Segment, nSegs)
	for i := range segs {
		var addr, size uint64
		if err := binary.Read(r, binary.LittleEndian, &addr); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return nil, err
		}
		const maxSeg = 1 << 32
		if size > maxSeg {
			return nil, fmt.Errorf("program: unreasonable segment size %d", size)
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("program: load segment: %w", err)
		}
		segs[i] = Segment{Addr: addr, Data: data}
	}
	return New(name, code, segs, hdr[2], hdr[3])
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("program: unreasonable string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
