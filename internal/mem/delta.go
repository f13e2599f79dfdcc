package mem

// Dirty-page journal: the memory's implementation of the delta contract
// (internal/delta). Between snapshot points the Memory records which
// pages became writable — exactly the pages whose contents can differ
// from the previous snapshot, because a snapshot point marks every
// (delta: every dirtied) page copy-on-write, so the first subsequent
// write to a page must pass through wpage, where the journal is
// maintained. The write fast paths (Write64/Write32 on an
// already-private page) are untouched: they can only hit pages the
// journal already lists, so journaling costs nothing per instruction —
// the zero-allocations-per-instruction property the functional sweep
// depends on, pinned in bench_test.go.
//
// Snapshot (the keyframe) and Delta(since) form sequence-checked chains
// exactly like the warmed structures': applying a chain of deltas to a
// clone of its keyframe reproduces the full Image bit for bit
// (property-tested in delta_test.go). The checkpoint layer uses this to
// store per-unit memory as dirty-page deltas between keyframes instead
// of one full page table per unit.

import (
	"fmt"
	"sort"

	"repro/internal/delta"
)

// The memory's Image is a delta.State. Memory keeps the Source chain
// contract without its arena parameter (see package delta).
var _ delta.State[*Delta] = (*Image)(nil)

// Delta is a dirty-page delta between two snapshot points of one
// Memory: the pages written (or newly allocated) in between, with their
// full contents. Pages are never deallocated, so a delta only ever adds
// or replaces pages. The page arrays are shared, copy-on-write-
// protected storage: treat them as read-only.
type Delta struct {
	// Since is the sequence number of the baseline snapshot, Seq the
	// number this delta advances the chain to (not serialized; the
	// checkpoint codec rebuilds chains from record order).
	Since, Seq uint64
	// Nums holds the dirtied page numbers, strictly ascending; Pages the
	// corresponding page arrays.
	Nums  []uint64
	Pages []*[PageSize]byte
}

// Validate checks the delta's internal consistency.
//
//simlint:coldpath consistency validation; one pass over the page list, allocates only to report a corrupt delta
func (d *Delta) Validate() error {
	if len(d.Nums) != len(d.Pages) {
		return fmt.Errorf("mem delta: %d page numbers, %d pages", len(d.Nums), len(d.Pages))
	}
	for i, num := range d.Nums {
		if i > 0 && num <= d.Nums[i-1] {
			return fmt.Errorf("mem delta: page numbers not ascending at %#x", num)
		}
		if d.Pages[i] == nil {
			return fmt.Errorf("mem delta: nil page %#x", num)
		}
	}
	return nil
}

// Bytes returns the approximate in-memory payload size of the delta:
// the page contents plus the page-number table.
func (d *Delta) Bytes() int { return 8*len(d.Nums) + PageSize*len(d.Pages) }

// Len returns the number of dirtied pages the delta carries.
func (d *Delta) Len() int { return len(d.Nums) }

// record notes that the page numbered num just became writable — wpage
// calls it when allocating a fresh page or copying a shared one. A page
// enters at most once per snapshot interval (it stays private, and
// therefore off this path, until the next snapshot point).
func (m *Memory) record(num uint64) {
	m.journal = append(m.journal, num)
}

// Seq returns the memory's current snapshot-chain link (0 before the
// first Snapshot).
func (m *Memory) Seq() uint64 { return m.chain.Seq() }

// Delta captures the pages dirtied since the snapshot point numbered
// since — which must be the memory's latest (Snapshot or Delta); deltas
// chain strictly. Like Snapshot, taking a delta is a snapshot point:
// the dirtied pages become copy-on-write, so the returned page arrays
// are immutable from here on, and the journal restarts empty.
func (m *Memory) Delta(since uint64) (*Delta, error) {
	seq, err := m.chain.Next(since)
	if err != nil {
		return nil, fmt.Errorf("mem: %w", err)
	}
	d := &Delta{Since: since, Seq: seq}
	if len(m.journal) > 0 {
		sort.Slice(m.journal, func(i, j int) bool { return m.journal[i] < m.journal[j] })
		if m.shared == nil {
			m.shared = make(map[uint64]struct{}, len(m.journal))
		}
		d.Nums = make([]uint64, 0, len(m.journal))
		d.Pages = make([]*[PageSize]byte, 0, len(m.journal))
		for i, num := range m.journal {
			if i > 0 && num == m.journal[i-1] {
				continue
			}
			p, ok := m.pages[num]
			if !ok {
				// Journaled pages are never removed; reaching here means
				// the journal and page map diverged.
				return nil, fmt.Errorf("mem: journaled page %#x missing", num)
			}
			d.Nums = append(d.Nums, num)
			d.Pages = append(d.Pages, p)
			m.shared[num] = struct{}{}
		}
		m.journal = m.journal[:0]
		m.lastWritable = false
	}
	return d, nil
}

// Clone returns a new Image over the same (immutable, shared) page
// arrays. The clone's page table is private, so Apply may patch it
// without affecting the original — the first step of materializing a
// delta chain.
func (img *Image) Clone() *Image {
	c := &Image{pages: make(map[uint64]*[PageSize]byte, len(img.pages))}
	c.CopyFrom(img)
	return c
}

// CopyFrom makes img's page table a copy of src's, reusing img's map —
// the copy-into-existing form of Clone a rolling launch state refills
// at each keyframe. img must be private (a Clone, or a zero Image this
// call initializes); the page arrays stay shared and read-only.
//
//simlint:hotpath
func (img *Image) CopyFrom(src *Image) {
	if img.pages == nil {
		//simlint:coldpath first use: size the page table once
		img.pages = make(map[uint64]*[PageSize]byte, len(src.pages))
	}
	clear(img.pages)
	for n, p := range src.pages {
		img.pages[n] = p
	}
}

// Apply patches the image forward by one delta: after Apply, the image
// equals the full Snapshot taken at the point the delta was captured.
// The receiver must be a private copy (Clone) of the snapshot the delta
// was taken against — images are shared between checkpoints, so
// patching a shared one would corrupt its other holders.
//
//simlint:hotpath
func (img *Image) Apply(d *Delta) error {
	if err := d.Validate(); err != nil {
		return err
	}
	for i, num := range d.Nums {
		img.pages[num] = d.Pages[i]
	}
	return nil
}
