package mem

import (
	"sort"

	"repro/internal/delta"
)

// Image is an immutable point-in-time snapshot of a Memory, produced by
// Memory.Snapshot. Pages are shared by reference between the image, the
// snapshotted memory, and every Memory materialized from the image;
// copy-on-write in Memory keeps each view isolated. Images are safe for
// concurrent use: NewMemory may be called from many goroutines at once,
// which is how the parallel sampling engine hands one checkpointed
// memory state to each worker, and how every CPU starts from its
// program's initial image (program.Program.Image).
//
//simlint:unpadded a launch-state snapshot: its hot methods fill the page map it points to, once per unit launch
type Image struct {
	pages map[uint64]*[PageSize]byte
}

// Snapshot freezes the current contents into an Image. The receiver
// stays usable; its subsequent writes copy pages privately and do not
// leak into the image (nor into memories built from it). The snapshot
// itself is O(allocated pages) in time and shares all page storage.
//
// Snapshot is also the keyframe of the memory's delta chain: it resets
// the dirty-page journal, so the next Delta carries exactly the pages
// written from here on (see delta.go in this package).
func (m *Memory) Snapshot() *Image {
	img := &Image{pages: make(map[uint64]*[PageSize]byte, len(m.pages))}
	if m.shared == nil {
		m.shared = make(map[uint64]struct{}, len(m.pages))
	}
	for num, p := range m.pages {
		img.pages[num] = p
		m.shared[num] = struct{}{}
	}
	m.lastWritable = false
	m.journal = m.journal[:0]
	m.chain.Keyframe()
	return img
}

// NewMemory materializes a fresh Memory with the image's contents. The
// result shares page storage with the image until first write to each
// page (copy-on-write), so per-worker restoration is O(pages) map work,
// not a byte copy of the footprint.
func (img *Image) NewMemory() *Memory {
	m := &Memory{
		pages:  make(map[uint64]*[PageSize]byte, len(img.pages)),
		shared: make(map[uint64]struct{}, len(img.pages)),
	}
	m.Restore(img)
	return m
}

// Restore replaces the memory's contents with the image's, exactly as
// NewMemory would build them — every page shared copy-on-write, no
// cached page, an empty journal, a snapshot chain that has seen no
// snapshot — but reusing the memory's own maps, so a replay worker
// relaunches one Memory per unit instead of allocating two page tables
// each time. Pages the memory had copied privately are dropped.
//
//simlint:hotpath
func (m *Memory) Restore(img *Image) {
	if m.shared == nil {
		//simlint:coldpath first snapshot-sharing of this memory: size the set once
		m.shared = make(map[uint64]struct{}, len(img.pages))
	}
	clear(m.pages)
	clear(m.shared)
	for num, p := range img.pages {
		m.pages[num] = p
		m.shared[num] = struct{}{}
	}
	m.lastPageNum, m.lastPage, m.lastWritable = 0, nil, false
	m.journal = m.journal[:0]
	m.chain = delta.Chain{}
}

// PageCount returns the number of pages the image holds.
func (img *Image) PageCount() int { return len(img.pages) }

// VisitPages calls f for every page in ascending page-number order. The
// page arrays are the image's own shared storage: callers must treat
// them as read-only. Serializers (the checkpoint store) use the pointer
// identity to deduplicate pages shared copy-on-write between
// neighbouring snapshots.
func (img *Image) VisitPages(f func(num uint64, data *[PageSize]byte)) {
	nums := make([]uint64, 0, len(img.pages))
	for n := range img.pages {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		f(n, img.pages[n])
	}
}

// Read64 returns the little-endian 64-bit value at addr in the image
// (zero for unallocated addresses). It exists for tests and checkpoint
// inspection; simulation restores a full Memory via NewMemory.
func (img *Image) Read64(addr uint64) uint64 {
	off := addr & pageMask
	if off <= PageSize-8 {
		p := img.pages[addr>>PageBits]
		if p == nil {
			return 0
		}
		return uint64(p[off]) | uint64(p[off+1])<<8 |
			uint64(p[off+2])<<16 | uint64(p[off+3])<<24 |
			uint64(p[off+4])<<32 | uint64(p[off+5])<<40 |
			uint64(p[off+6])<<48 | uint64(p[off+7])<<56
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		p := img.pages[(addr+i)>>PageBits]
		if p != nil {
			v |= uint64(p[(addr+i)&pageMask]) << (8 * i)
		}
	}
	return v
}
