// Package immut seeds the immutable analyzer's annotated type. Its own
// package builds and fills it freely: clean.
package immut

// Seg is a chunk of a Prog's data.
type Seg struct {
	Addr uint64
	Data []byte
}

// Prog memoizes what it derives from its fields, so it never changes
// once built.
//
//simlint:immutable
type Prog struct {
	Name string
	Code []uint32
	Segs []Seg
	Len  uint64
	memo uint64
}

// New builds a Prog; writes inside the defining package are allowed.
func New(name string, n uint64) *Prog {
	p := &Prog{Name: name}
	p.Len = n
	p.Code = append(p.Code, 1)
	cp := *p
	return &cp
}

// Sum derives (and memoizes) a value from the fields.
func (p *Prog) Sum() uint64 {
	if p.memo == 0 {
		p.memo = p.Len + uint64(len(p.Code))
	}
	return p.memo
}

// Plain is not annotated: writes from anywhere are clean.
type Plain struct{ N uint64 }
