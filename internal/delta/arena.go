package delta

// Elem is an element type an Arena keeps a slab of: the element types of
// every content array a warm snapshot or delta carries (block lists,
// tags, stamps, counters, valid bits).
type Elem interface {
	uint64 | uint32 | uint8 | bool
}

// Arena is the destination of the snapshot and delta constructors
// (Gather, Bitmap.Drain, and the Source implementations' Snapshot and
// Delta): one slab per element type, carved with a bump offset into
// subslices whose capacity is cut to their length, so no carved array
// can grow into its neighbour. A nil *Arena carves nothing: every
// constructor then makes a fresh, exactly sized array of its own, which
// is what a snapshot that outlives its sweep (a retained Set, a cache, a
// decoded store entry) needs.
//
// A carve that does not fit its slab gets a fresh array, and Reset grows
// every slab to a quarter more than the larger of what it carved since
// the last Reset and what the caller asks it to fit, so an arena reused
// for spans no larger than those stops allocating: the owner of many
// arenas passes the largest span any of them carved, and each arena
// grows to it once instead of once per larger span it happens to serve.
// Reset invalidates every array carved before it: the owner resets only
// once nothing reads them any more. An Arena is not safe for concurrent
// carving; the zero value is ready to use.
type Arena struct {
	u64  slab[uint64]
	u32  slab[uint32]
	u8   slab[uint8]
	bits slab[bool]
}

// Sizes counts elements of each slab type: what an arena carved, or
// what its slabs must hold.
type Sizes struct {
	U64, U32, U8, Bits int
}

// Bytes returns the storage the counts take.
func (s Sizes) Bytes() int { return 8*s.U64 + 4*s.U32 + s.U8 + s.Bits }

// Max returns the larger of each count of s and o.
func (s Sizes) Max(o Sizes) Sizes {
	return Sizes{max(s.U64, o.U64), max(s.U32, o.U32), max(s.U8, o.U8), max(s.Bits, o.Bits)}
}

// slab is one element type's storage: buf[:off] is carved, and used
// counts every element carved since the last reset, the ones that did
// not fit included.
type slab[T Elem] struct {
	buf       []T
	off, used int
}

func (s *slab[T]) carve(n int) []T {
	s.used += n
	if s.off+n > len(s.buf) {
		return make([]T, n)
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}

func (s *slab[T]) reset(fit int) {
	if n := max(s.used, fit); n > len(s.buf) {
		s.buf = make([]T, n+n/4)
	}
	s.off, s.used = 0, 0
}

// slabOf returns a's slab of T.
func slabOf[T Elem](a *Arena) *slab[T] {
	var s any
	switch any(*new(T)).(type) {
	case uint64:
		s = &a.u64
	case uint32:
		s = &a.u32
	case uint8:
		s = &a.u8
	case bool:
		s = &a.bits
	}
	return s.(*slab[T])
}

// Make returns n elements carved from a, or, when a is nil, a new zeroed
// slice of exactly n; either way its capacity is n. Carved elements hold
// whatever the slab held before, so callers overwrite every one.
func Make[T Elem](a *Arena, n int) []T {
	if a == nil || n == 0 {
		return make([]T, n)
	}
	return slabOf[T](a).carve(n)
}

// Clone returns a copy of src carved from a, or, when a is nil,
// append([]T(nil), src...): a new array, nil for an empty src.
func Clone[T Elem](a *Arena, src []T) []T {
	if a == nil || len(src) == 0 {
		return append([]T(nil), src...)
	}
	dst := slabOf[T](a).carve(len(src))
	copy(dst, src)
	return dst
}

// Reset makes every slab available for carving again, grown first, if
// it is shorter than the elements carved from it since the last Reset or
// than fit asks, to a quarter more than the larger. Every array carved
// before the call may be overwritten by the next carves.
func (a *Arena) Reset(fit Sizes) {
	a.u64.reset(fit.U64)
	a.u32.reset(fit.U32)
	a.u8.reset(fit.U8)
	a.bits.reset(fit.Bits)
}

// Bytes returns the slabs' storage in bytes: what a kept arena holds on
// to.
func (a *Arena) Bytes() int {
	return Sizes{len(a.u64.buf), len(a.u32.buf), len(a.u8.buf), len(a.bits.buf)}.Bytes()
}

// Used returns the elements carved since the last Reset, the carves that
// did not fit included.
func (a *Arena) Used() Sizes {
	return Sizes{a.u64.used, a.u32.used, a.u8.used, a.bits.used}
}

// Poison overwrites every slab with a fixed pattern (0xA5 bytes, true
// bits), so an array read after the arena was reset carries values no
// capture produced. Tests poison released arenas to show that nothing
// still reads them.
func (a *Arena) Poison() {
	for i := range a.u64.buf {
		a.u64.buf[i] = 0xA5A5A5A5A5A5A5A5
	}
	for i := range a.u32.buf {
		a.u32.buf[i] = 0xA5A5A5A5
	}
	for i := range a.u8.buf {
		a.u8.buf[i] = 0xA5
	}
	for i := range a.bits.buf {
		a.bits.buf[i] = true
	}
}
