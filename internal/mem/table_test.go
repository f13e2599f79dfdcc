package mem_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/mem"
)

// refMem is the page-table fuzzer's reference model: a map from page
// number to a private copy of the page's bytes.
type refMem map[uint64]*[mem.PageSize]byte

func (r refMem) clone() refMem {
	c := make(refMem, len(r))
	for n, p := range r {
		cp := *p
		c[n] = &cp
	}
	return c
}

func (r refMem) write(addr uint64, b []byte) {
	for i, v := range b {
		a := addr + uint64(i)
		p := r[a>>mem.PageBits]
		if p == nil {
			p = new([mem.PageSize]byte)
			r[a>>mem.PageBits] = p
		}
		p[a&(mem.PageSize-1)] = v
	}
}

func (r refMem) read(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if p := r[a>>mem.PageBits]; p != nil {
			out[i] = p[a&(mem.PageSize-1)]
		}
	}
	return out
}

func (r refMem) nums() []uint64 {
	nums := make([]uint64, 0, len(r))
	for n := range r {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	return nums
}

// checkMemory compares m with the reference page for page.
func checkMemory(t *testing.T, what string, m *mem.Memory, want refMem) {
	t.Helper()
	if got := m.Pages(); !slices.Equal(got, want.nums()) {
		t.Fatalf("%s: pages %#x, want %#x", what, got, want.nums())
	}
	if m.PageCount() != len(want) {
		t.Fatalf("%s: PageCount %d, want %d", what, m.PageCount(), len(want))
	}
	var buf [mem.PageSize]byte
	for n, p := range want {
		m.ReadBytes(n*mem.PageSize, buf[:])
		if buf != *p {
			t.Fatalf("%s: page %#x differs", what, n)
		}
	}
}

// checkImage compares img with the reference: VisitPages must visit
// exactly its pages, in strictly ascending order, with their bytes.
func checkImage(t *testing.T, what string, img *mem.Image, want refMem) {
	t.Helper()
	var nums []uint64
	img.VisitPages(func(n uint64, p *[mem.PageSize]byte) {
		if len(nums) > 0 && n <= nums[len(nums)-1] {
			t.Fatalf("%s: VisitPages visited %#x after %#x", what, n, nums[len(nums)-1])
		}
		if w := want[n]; w == nil || *w != *p {
			t.Fatalf("%s: page %#x differs from the reference", what, n)
		}
		nums = append(nums, n)
	})
	if !slices.Equal(nums, want.nums()) || img.PageCount() != len(want) {
		t.Fatalf("%s: pages %#x (count %d), want %#x", what, nums, img.PageCount(), want.nums())
	}
}

// FuzzPageTable drives a Memory and the Images taken of it with an
// operation sequence decoded from the input — mixed-width and
// page-straddling reads and writes at sparse 64-bit page numbers (far
// apart, adjacent, at leaf edges and at the top of the address space),
// Snapshot, Delta and Apply onto a tracked clone, Restore, Reset, Clone,
// CopyFrom and NewMemory — and checks every view against a map-based
// reference model: contents, page sets, VisitPages order, and
// copy-on-write isolation (no write to a memory reaches an image, a
// clone or another memory built from the same image).
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte("\x05\x00\x10\x20\x00\x11\x21\x06\x00\x12\x22\x07\x0b\x00\x13\x0a\x06\x08\x09"))
	f.Add([]byte("\x00\x07\xff\x01\x07\xfe\x05\x02\x06\xfd\x06\x07\x00\x0c\x0d\x08\x0a"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Page numbers the operations pick from: two leaves' edges, far
		// apart, and the top page, whose straddling accesses wrap to 0.
		bases := [...]uint64{0, 1, 511, 512, 0x1000, 0x1400, 1 << 20, 1 << 40, 1<<52 - 1, 0x7_0000}
		offs := [...]uint64{0, 8, 1000, mem.PageSize - 8, mem.PageSize - 4, mem.PageSize - 3, mem.PageSize - 1, mem.PageSize - 6}
		m, ref := mem.New(), refMem{}
		type shot struct {
			img *mem.Image
			ref refMem
		}
		var (
			shots   []shot
			tracked *mem.Image // keyframe clone the deltas are applied to
			seq     uint64
			chain   bool // a Snapshot started a chain Delta may extend
			scratch mem.Image
		)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		addr := func() uint64 {
			b := next()
			return bases[int(b>>3)%len(bases)]*mem.PageSize + offs[b&7]
		}
		pick := func() shot { return shots[int(next())%len(shots)] }
		for step := 0; len(ops) > 0 && step < 200; step++ {
			op := next() % 14
			switch op {
			case 0, 1, 2: // writes of 8, 4 and 1 bytes
				a, v := addr(), uint64(next())*0x0101010101010101+uint64(step)
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				switch op {
				case 0:
					m.Write64(a, v)
					ref.write(a, b[:8])
				case 1:
					m.Write32(a, uint32(v))
					ref.write(a, b[:4])
				case 2:
					m.Write8(a, uint8(v))
					ref.write(a, b[:1])
				}
			case 3, 4: // reads of 8 and 4 bytes
				a := addr()
				if op == 3 {
					if got, want := m.Read64(a), binary.LittleEndian.Uint64(ref.read(a, 8)); got != want {
						t.Fatalf("step %d: Read64(%#x) = %#x, want %#x", step, a, got, want)
					}
				} else if got, want := m.Read32(a), binary.LittleEndian.Uint32(ref.read(a, 4)); got != want {
					t.Fatalf("step %d: Read32(%#x) = %#x, want %#x", step, a, got, want)
				}
			case 5: // snapshot: a keyframe
				shots = append(shots, shot{m.Snapshot(), ref.clone()})
				tracked, seq, chain = shots[len(shots)-1].img.Clone(), m.Seq(), true
			case 6: // delta onto the tracked clone
				d, err := m.Delta(seq)
				if !chain {
					if err == nil {
						t.Fatalf("step %d: Delta with no chain succeeded", step)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := tracked.Apply(d); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				seq = d.Seq
				checkImage(t, "delta-tracked image", tracked, ref)
			case 7, 8: // restore from an image, reset
				if op == 7 && len(shots) > 0 {
					s := pick()
					m.Restore(s.img)
					ref = s.ref.clone()
				} else {
					m.Reset()
					ref = refMem{}
				}
				chain = false
				checkMemory(t, "restored memory", m, ref)
			case 9: // a deep clone is equal and private
				c := m.Clone()
				checkMemory(t, "clone", c, ref)
				c.Write64(addr(), ^uint64(0))
				checkMemory(t, "memory after its clone's write", m, ref)
			case 10: // CopyFrom into a reused private image, then patch it
				if len(shots) == 0 {
					continue
				}
				s := pick()
				scratch.CopyFrom(s.img)
				checkImage(t, "CopyFrom", &scratch, s.ref)
				var page [mem.PageSize]byte
				page[0] = 0xee
				if err := scratch.Apply(&mem.Delta{Nums: []uint64{bases[int(next())%len(bases)]}, Pages: []*[mem.PageSize]byte{&page}}); err != nil {
					t.Fatal(err)
				}
				checkImage(t, "image under a patched copy", s.img, s.ref)
			case 11: // a memory built from an image writes privately
				if len(shots) == 0 {
					continue
				}
				s := pick()
				o := s.img.NewMemory()
				checkMemory(t, "NewMemory", o, s.ref)
				o.Write64(addr(), 0xdead)
				checkImage(t, "image under a restored memory's write", s.img, s.ref)
				checkMemory(t, "memory beside another's write", m, ref)
			case 12, 13: // whole-state checks
				checkMemory(t, "memory", m, ref)
				for i, s := range shots {
					checkImage(t, "snapshot "+string(rune('0'+i%10)), s.img, s.ref)
				}
			}
		}
		checkMemory(t, "final memory", m, ref)
		for _, s := range shots {
			checkImage(t, "final snapshot", s.img, s.ref)
		}
	})
}

// TestPageTableCopyZeroAlloc pins the per-launch page-table copies to
// no allocation once warmed: Memory.Restore, Image.CopyFrom and
// Image.Apply reuse the leaves the destination already owns, whichever
// of two images with different leaf counts it held last.
func TestPageTableCopyZeroAlloc(t *testing.T) {
	a, b := mem.New(), mem.New()
	for n := uint64(0x1000); n < 0x1410; n += 3 {
		a.Write64(n*mem.PageSize, n)
	}
	b.Write64(1<<40, 1)
	imgA, imgB := a.Snapshot(), b.Snapshot()
	a.Write64(0x1200*mem.PageSize, 7)
	a.Write64(0x7_0000*mem.PageSize, 7)
	d, err := a.Delta(a.Seq())
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	var img mem.Image
	for name, f := range map[string]func(){
		"Memory.Restore": func() {
			m.Restore(imgA)
			m.Write64(0x1000*mem.PageSize, 1) // copy-on-write: one page, not the table
			m.Restore(imgB)
		},
		"Image.CopyFrom+Apply": func() {
			img.CopyFrom(imgA)
			if err := img.Apply(d); err != nil {
				t.Fatal(err)
			}
			img.CopyFrom(imgB)
		},
	} {
		f() // warm: the destination gets its leaves
		want := 0.0
		if name == "Memory.Restore" {
			want = 1 // the copied-on-write page
		}
		if allocs := testing.AllocsPerRun(100, f); allocs != want {
			t.Errorf("%s: %.1f allocations per run, want %.0f", name, allocs, want)
		}
	}
}
