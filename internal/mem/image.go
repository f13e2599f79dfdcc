package mem

import "repro/internal/delta"

// Image is an immutable point-in-time snapshot of a Memory, produced by
// Memory.Snapshot. Pages are shared by reference between the image, the
// snapshotted memory, and every Memory materialized from the image;
// copy-on-write in Memory keeps each view isolated. Images are safe for
// concurrent use: NewMemory and Restore only read the image, so many
// goroutines may build from one at once, which is how the parallel
// sampling engine hands one checkpointed memory state to each worker,
// and how every CPU starts from its program's initial image
// (program.Program.Image).
//
//simlint:unpadded a launch-state snapshot: its hot methods fill the page table it points to, once per unit launch
type Image struct {
	t table
}

// Snapshot freezes the current contents into an Image. The receiver
// stays usable; its subsequent writes copy pages privately and do not
// leak into the image (nor into memories built from it). The snapshot
// itself is a per-leaf copy of the page table and shares all page
// storage.
//
// Snapshot is also the keyframe of the memory's delta chain: it resets
// the dirty-page journal, so the next Delta carries exactly the pages
// written from here on (see delta.go in this package).
func (m *Memory) Snapshot() *Image {
	img := new(Image)
	img.t.copyFrom(&m.t)
	for _, l := range m.t.leaves[:m.t.n] {
		l.shared = l.present
	}
	m.lastWritable = false
	m.journal = m.journal[:0]
	m.chain.Keyframe()
	return img
}

// NewMemory materializes a fresh Memory with the image's contents. The
// result shares page storage with the image until first write to each
// page (copy-on-write), so building one costs a per-leaf copy of the
// page table, not a byte copy of the footprint.
func (img *Image) NewMemory() *Memory {
	m := New()
	m.Restore(img)
	return m
}

// Restore replaces the memory's contents with the image's, exactly as
// NewMemory would build them — every page shared copy-on-write, no
// cached page, an empty journal, a snapshot chain that has seen no
// snapshot — but copying the image's page table into leaves the memory
// already owns, so a replay worker relaunches one Memory per unit
// without allocating. Pages the memory had copied privately are
// dropped. It only reads img.
//
//simlint:hotpath
func (m *Memory) Restore(img *Image) {
	m.t.copyFrom(&img.t)
	for _, l := range m.t.leaves[:m.t.n] {
		l.shared = l.present
	}
	m.leaf = nil
	m.lastPageNum, m.lastPage, m.lastWritable = 0, nil, false
	m.journal = m.journal[:0]
	m.chain = delta.Chain{}
}

// PageCount returns the number of pages the image holds.
func (img *Image) PageCount() int { return img.t.count() }

// VisitPages calls f for every page in ascending page-number order. The
// page arrays are the image's own shared storage: callers must treat
// them as read-only. Serializers (the checkpoint store) use the pointer
// identity to deduplicate pages shared copy-on-write between
// neighbouring snapshots.
func (img *Image) VisitPages(f func(num uint64, data *[PageSize]byte)) { img.t.visit(f) }

// Read64 returns the little-endian 64-bit value at addr in the image
// (zero for unallocated addresses). It exists for tests and checkpoint
// inspection; simulation restores a full Memory via NewMemory.
func (img *Image) Read64(addr uint64) uint64 { return img.NewMemory().Read64(addr) }
