package mem

import "math/bits"

// A leaf maps 64 consecutive page numbers in 536 bytes, so a program of
// a few pages costs little more than its pages and one word holds each
// bitmap; the suite's data segments span 1 to 17 consecutive leaves.
const (
	leafBits = 6
	leafMask = 1<<leafBits - 1
)

// leaf is the second level of a page table: page arrays, a bitmap of the
// present ones and, in a Memory, of those shared with an Image.
type leaf struct {
	num             uint64 // page number >> leafBits
	pages           [1 << leafBits]*[PageSize]byte
	present, shared uint64
}

// table is a two-level page table over the full 64-bit page-number
// space: a directory of the leaves that hold pages, sorted by number, so
// a far-apart page costs one leaf. No two tables share a leaf, so a copy
// is a per-leaf copy of page pointers into leaves the destination
// already owns; emptied leaves stay as spares. The zero value is empty.
//
//simlint:unpadded embedded in a Memory or Image, whose own layout decides what shares its lines
type table struct {
	leaves []*leaf // leaves[:n] the directory, leaves[n:] empty spares
	n      int
}

// search returns the directory position of leaf ln, or where it would be
// inserted. Consecutive leaves from the first, as a program's data
// segment has, put leaf ln at ln minus the first's number.
//
//simlint:hotpath
func (t *table) search(ln uint64) int {
	if t.n > 0 {
		if i := ln - t.leaves[0].num; i < uint64(t.n) && t.leaves[i].num == ln {
			return int(i)
		}
	}
	lo, hi := 0, t.n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.leaves[mid].num < ln {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns leaf ln, or nil. It only reads the table.
//
//simlint:hotpath
func (t *table) find(ln uint64) *leaf {
	if i := t.search(ln); i < t.n && t.leaves[i].num == ln {
		return t.leaves[i]
	}
	return nil
}

// insert adds leaf ln, which t lacks, empty: a spare, else a new one.
//
//simlint:coldpath once per leaf a memory or image first touches
func (t *table) insert(ln uint64) *leaf {
	i := t.search(ln)
	if t.n == len(t.leaves) {
		t.leaves = append(t.leaves, new(leaf))
	}
	l := t.leaves[t.n]
	copy(t.leaves[i+1:t.n+1], t.leaves[i:t.n])
	t.leaves[i], l.num = l, ln
	t.n++
	return l
}

// copyFrom makes t a copy of src in leaves t owns, sharing the page
// arrays; leaves past src's count are emptied into spares. It only reads
// src, and allocates only leaves t never had.
//
//simlint:hotpath
func (t *table) copyFrom(src *table) {
	for i := src.n; i < t.n; i++ {
		*t.leaves[i] = leaf{}
	}
	for i, s := range src.leaves[:src.n] {
		if i == len(t.leaves) {
			//simlint:coldpath first use: a leaf more than this table ever held
			t.leaves = append(t.leaves, new(leaf))
		}
		*t.leaves[i] = *s
	}
	t.n = src.n
}

func (t *table) count() int {
	n := 0
	for _, l := range t.leaves[:t.n] {
		n += bits.OnesCount64(l.present)
	}
	return n
}

// visit calls f for every page in ascending page-number order.
func (t *table) visit(f func(num uint64, p *[PageSize]byte)) {
	for _, l := range t.leaves[:t.n] {
		for w := l.present; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			f(l.num<<leafBits|uint64(i), l.pages[i])
		}
	}
}
