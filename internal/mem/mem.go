// Package mem provides the sparse, paged, little-endian byte-addressable
// memory shared by the functional and detailed simulators.
//
// The address space is the full 64 bits; pages are allocated lazily on
// first touch so multi-gigabyte working-set layouts cost only what they
// touch. Reads of unallocated memory return zero without allocating.
// Memories and Images keep their pages in a two-level page table
// (table.go): a lookup is an index or two, and copying a table is a
// per-leaf copy of page pointers into leaves the destination owns.
package mem

import (
	"encoding/binary"

	"repro/internal/cacheline"
	"repro/internal/delta"
)

// Page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// Memory is a sparse paged memory. The zero value is not usable; call New.
type Memory struct {
	_ cacheline.Pad
	// t is the page table; a page with its shared bit set is aliased by
	// an Image and copied on first write. leaf is the last leaf found.
	t    table
	leaf *leaf

	// lastPageNum/lastPage cache the most recently touched page, which
	// captures nearly all locality in simulator workloads. lastWritable
	// records whether the cached page is known private (safe to write
	// without a copy-on-write check).
	lastPageNum  uint64
	lastPage     *[PageSize]byte
	lastWritable bool

	// journal lists the pages made writable since the last snapshot
	// point, and chain numbers the snapshot points — the dirty-page
	// journal behind the delta contract (see delta.go in this package).
	journal []uint64
	chain   delta.Chain

	_ cacheline.Pad
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

// leafOf returns leaf ln, or nil.
func (m *Memory) leafOf(ln uint64) *leaf {
	if m.leaf == nil || m.leaf.num != ln {
		m.leaf = m.t.find(ln)
	}
	return m.leaf
}

// page returns the page containing addr for reading, or nil when absent.
//
//simlint:coldpath page-table walk on a one-page-cache miss: an index into the last leaf used or into the directory
func (m *Memory) page(addr uint64, allocate bool) *[PageSize]byte {
	if allocate {
		return m.wpage(addr)
	}
	num := addr >> PageBits
	if m.lastPage != nil && m.lastPageNum == num {
		return m.lastPage
	}
	l := m.leafOf(num >> leafBits)
	if l == nil {
		return nil
	}
	i := num & leafMask
	p := l.pages[i]
	if p == nil {
		return nil
	}
	m.lastPageNum, m.lastPage = num, p
	m.lastWritable = l.shared&(1<<i) == 0
	return p
}

// wpage returns a writable page containing addr, allocating or
// copy-on-writing it as needed.
//
//simlint:coldpath copy-on-write materialization; once per page per snapshot
func (m *Memory) wpage(addr uint64) *[PageSize]byte {
	num := addr >> PageBits
	if m.lastPage != nil && m.lastPageNum == num && m.lastWritable {
		return m.lastPage
	}
	if m.leafOf(num>>leafBits) == nil {
		m.leaf = m.t.insert(num >> leafBits)
	}
	l, i := m.leaf, num&leafMask
	p, bit := l.pages[i], uint64(1)<<i
	if p == nil || l.shared&bit != 0 {
		cp := new([PageSize]byte)
		if p != nil {
			*cp = *p
		}
		p, l.pages[i] = cp, cp
		l.present |= bit
		l.shared &^= bit
		// Journal the page: it stays private, off this path, until the
		// next snapshot point.
		m.journal = append(m.journal, num)
	}
	m.lastPageNum, m.lastPage, m.lastWritable = num, p, true
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint64) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint64, v uint8) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read32 returns the little-endian 32-bit value at addr. The access may
// straddle a page boundary.
//
// The fast path exploits one identity: when addr lies on the cached
// page, addr XOR (lastPageNum << PageBits) equals the in-page offset;
// when it does not, the XOR has bits set above the page mask and the
// single unsigned comparison against PageSize-width rejects it. That
// folds the page-match and bounds checks into one branch, so the
// overwhelmingly common same-page access costs one compare and one
// fixed-width load/store — no page-map lookup, no inner call.
//
//simlint:hotpath
func (m *Memory) Read32(addr uint64) uint32 {
	if p, off := m.lastPage, addr^(m.lastPageNum<<PageBits); p != nil && off <= PageSize-4 {
		return binary.LittleEndian.Uint32(p[off:])
	}
	return m.read32Slow(addr)
}

//simlint:coldpath page-crossing or first-touch access; off the cached-page fast path
func (m *Memory) read32Slow(addr uint64) uint32 {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[off:])
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores v little-endian at addr. The access may straddle a page
// boundary.
//
//simlint:hotpath
func (m *Memory) Write32(addr uint64, v uint32) {
	if p, off := m.lastPage, addr^(m.lastPageNum<<PageBits); m.lastWritable && p != nil && off <= PageSize-4 {
		binary.LittleEndian.PutUint32(p[off:], v)
		return
	}
	m.write32Slow(addr, v)
}

//simlint:coldpath page-crossing or copy-on-write access; off the cached-page fast path
func (m *Memory) write32Slow(addr uint64, v uint32) {
	off := addr & pageMask
	if off <= PageSize-4 {
		p := m.page(addr, true)
		binary.LittleEndian.PutUint32(p[off:], v)
		return
	}
	for i := uint64(0); i < 4; i++ {
		m.Write8(addr+i, uint8(v>>(8*i)))
	}
}

// Read64 returns the little-endian 64-bit value at addr. The access may
// straddle a page boundary. See Read32 for the fast-path shape.
//
//simlint:hotpath
func (m *Memory) Read64(addr uint64) uint64 {
	if p, off := m.lastPage, addr^(m.lastPageNum<<PageBits); p != nil && off <= PageSize-8 {
		return binary.LittleEndian.Uint64(p[off:])
	}
	return m.read64Slow(addr)
}

//simlint:coldpath page-crossing or first-touch access; off the cached-page fast path
func (m *Memory) read64Slow(addr uint64) uint64 {
	off := addr & pageMask
	if off <= PageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores v little-endian at addr. The access may straddle a page
// boundary.
//
//simlint:hotpath
func (m *Memory) Write64(addr uint64, v uint64) {
	if p, off := m.lastPage, addr^(m.lastPageNum<<PageBits); m.lastWritable && p != nil && off <= PageSize-8 {
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	m.write64Slow(addr, v)
}

//simlint:coldpath page-crossing or copy-on-write access; off the cached-page fast path
func (m *Memory) write64Slow(addr uint64, v uint64) {
	off := addr & pageMask
	if off <= PageSize-8 {
		p := m.page(addr, true)
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Write8(addr+i, uint8(v>>(8*i)))
	}
}

// WriteBytes copies data into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		p := m.page(addr, true)
		off := addr & pageMask
		n := copy(p[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := PageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		p := m.page(addr, false)
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:off+uint64(n)])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// PageCount returns the number of allocated pages.
func (m *Memory) PageCount() int { return m.t.count() }

// Footprint returns the number of bytes of allocated backing store.
func (m *Memory) Footprint() uint64 { return uint64(m.t.count()) * PageSize }

// Reset discards all contents. It also invalidates any delta chain in
// progress: pages vanish here, which a dirty-page delta cannot express,
// so the next chain must start with a fresh Snapshot.
func (m *Memory) Reset() {
	m.Restore(&Image{})
	m.chain.Invalidate()
}

// Clone returns a deep copy of the memory. Simulators use it to rerun a
// workload from an identical initial image.
func (m *Memory) Clone() *Memory {
	c := New()
	m.t.visit(func(num uint64, p *[PageSize]byte) { *c.wpage(num << PageBits) = *p })
	return c
}

// Pages returns the ascending list of allocated page numbers; used by
// tests and tools that need a deterministic traversal order.
func (m *Memory) Pages() []uint64 {
	nums := make([]uint64, 0, m.t.count())
	m.t.visit(func(num uint64, _ *[PageSize]byte) { nums = append(nums, num) })
	return nums
}
