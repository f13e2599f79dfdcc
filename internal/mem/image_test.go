package mem

import (
	"reflect"
	"testing"
)

func TestSnapshotIsolation(t *testing.T) {
	m := New()
	m.Write64(0x1000, 111)
	m.Write64(0x200000, 222)

	img := m.Snapshot()

	// Writes after the snapshot must not leak into the image.
	m.Write64(0x1000, 999)
	m.Write64(0x300000, 333)
	if got := img.Read64(0x1000); got != 111 {
		t.Fatalf("image sees post-snapshot write: got %d, want 111", got)
	}
	if got := img.Read64(0x300000); got != 0 {
		t.Fatalf("image sees post-snapshot page: got %d, want 0", got)
	}
	if got := m.Read64(0x1000); got != 999 {
		t.Fatalf("original lost its own write: got %d, want 999", got)
	}

	// Memories restored from the image see snapshot-time contents and are
	// isolated from each other and from the original.
	r1 := img.NewMemory()
	r2 := img.NewMemory()
	if got := r1.Read64(0x1000); got != 111 {
		t.Fatalf("restored memory: got %d, want 111", got)
	}
	r1.Write64(0x200000, 777)
	if got := r2.Read64(0x200000); got != 222 {
		t.Fatalf("restored memories not isolated: got %d, want 222", got)
	}
	if got := img.Read64(0x200000); got != 222 {
		t.Fatalf("image corrupted by restored write: got %d, want 222", got)
	}
	if got := m.Read64(0x200000); got != 222 {
		t.Fatalf("original corrupted by restored write: got %d, want 222", got)
	}
}

func TestSnapshotReadCacheInvalidation(t *testing.T) {
	m := New()
	m.Write64(0x40, 1)
	// Prime the read cache on the page, snapshot, then write through the
	// same cached page: the write must trigger copy-on-write despite the
	// cache, and the read cache must follow the private copy.
	_ = m.Read64(0x40)
	img := m.Snapshot()
	m.Write64(0x48, 2)
	if got := img.Read64(0x48); got != 0 {
		t.Fatalf("cached write leaked into image: got %d, want 0", got)
	}
	if got := m.Read64(0x48); got != 2 {
		t.Fatalf("write lost after COW: got %d, want 2", got)
	}
}

func TestRepeatedSnapshots(t *testing.T) {
	m := New()
	var imgs []*Image
	for i := uint64(0); i < 8; i++ {
		m.Write64(0x1000+8*i, i+1)
		imgs = append(imgs, m.Snapshot())
	}
	for i, img := range imgs {
		for j := uint64(0); j < 8; j++ {
			want := uint64(0)
			if j <= uint64(i) {
				want = j + 1
			}
			if got := img.Read64(0x1000 + 8*j); got != want {
				t.Fatalf("snapshot %d slot %d: got %d, want %d", i, j, got, want)
			}
		}
	}
}

// TestRestoreEqualsNewMemory: restoring a used memory from an image
// leaves exactly the memory NewMemory builds — field for field, however
// dirty the memory was (private pages, a cached page, a journal, an
// advanced snapshot chain, pages the image does not have) — and keeps
// the copy-on-write isolation from the image.
func TestRestoreEqualsNewMemory(t *testing.T) {
	src := New()
	for i := uint64(0); i < 40; i++ {
		src.Write64(i*PageSize+8, i+1)
	}
	img := src.Snapshot()

	m := New()
	m.Write64(0x7000_0000, 5) // a page the image lacks
	m.Snapshot()
	m.Write64(0x7000_0008, 6) // journaled, private, cached
	if _, err := m.Delta(m.Seq()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		m.Restore(img)
		want := img.NewMemory()
		want.journal = m.journal // both empty; only DeepEqual tells nil from kept-capacity
		if len(m.journal) != 0 || !reflect.DeepEqual(m, want) {
			t.Fatalf("round %d: restored memory differs from NewMemory's", round)
		}
		if got := m.Read64(0x7000_0000); got != 0 {
			t.Fatalf("round %d: page outside the image survived: %d", round, got)
		}
		m.Write64(3*PageSize+8, 999) // copy-on-write, then restored away
		if got := img.Read64(3*PageSize + 8); got != 4 {
			t.Fatalf("round %d: write leaked into the image: %d", round, got)
		}
	}
}

// TestImageCopyFrom: the copy-into-existing form of Clone yields an
// equal, private page table, whatever the destination held before.
func TestImageCopyFrom(t *testing.T) {
	a, b := New(), New()
	a.Write64(0x1000, 1)
	a.Write64(0x5000, 2)
	b.Write64(0x9000, 3)
	imgA, imgB := a.Snapshot(), b.Snapshot()

	var dst Image // zero value: first use
	for _, src := range []*Image{imgA, imgB, imgA} {
		dst.CopyFrom(src)
		if !reflect.DeepEqual(&dst, src.Clone()) {
			t.Fatal("CopyFrom result differs from Clone's")
		}
	}
	a.Write64(0x1000, 7)
	d, err := a.Delta(a.Seq())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Apply(d); err != nil {
		t.Fatal(err)
	}
	if dst.Read64(0x1000) != 7 || imgA.Read64(0x1000) != 1 {
		t.Fatal("patching the copy reached the source image (page table aliased)")
	}
}
