// Package immutuse seeds immutable-analyzer cases: writes to and
// by-value copies of an annotated type outside its package, each next
// to its allowed form.
package immutuse

import "testmod/immut"

// Holder points at a Prog; replacing the pointer writes the holder,
// not the Prog: clean.
type Holder struct{ P *immut.Prog }

// Build constructs with a composite literal and reads fields: clean.
func Build(name string) *immut.Prog {
	p := &immut.Prog{Name: name, Len: 3}
	_ = p.Name + string(rune(p.Code[0]))
	h := Holder{P: p}
	h.P = immut.New("x", 1)
	code := append([]uint32(nil), p.Code...)
	code[0] = 7
	return h.P
}

// Plain values stay writable: clean.
func Plain(q *immut.Plain) { q.N++ }

// Lengthen writes a field: flagged.
func Lengthen(p *immut.Prog) {
	p.Len = 2 * p.Len // want immutable `assigns to field Prog.Len: immut.Prog is immutable outside package immut`
	p.Len++           // want immutable `assigns to field Prog.Len`
}

// Patch writes elements reached through fields: flagged.
func Patch(p *immut.Prog, h Holder) {
	p.Code[0] = 1                        // want immutable `assigns to field Prog.Code`
	p.Segs[0].Data[1] = 2                // want immutable `assigns to field Prog.Segs`
	h.P.Name = "renamed"                 // want immutable `assigns to field Prog.Name`
	copy(p.Code, []uint32{3})            // want immutable `copy writes into field Prog.Code`
	p.Segs = append(p.Segs, immut.Seg{}) // want immutable `assigns to field Prog.Segs` // want immutable `append writes into field Prog.Segs`
	n := &p.Len                          // want immutable `takes the address of field Prog.Len`
	*n = 0
}

// Overwrite replaces the whole value: flagged.
func Overwrite(p *immut.Prog) {
	*p = immut.Prog{} // want immutable `assigns to immut.Prog: it is immutable`
}

// Clone copies by value: flagged.
func Clone(p *immut.Prog) *immut.Prog {
	q := *p // want immutable `copies immut.Prog by value`
	return &q
}

// Each ranges over values: flagged.
func Each(ps []immut.Prog) (n uint64) {
	for _, p := range ps { // want immutable `range copies immut.Prog by value`
		n += p.Len
	}
	for i := range ps {
		n += ps[i].Len
	}
	return n
}

// Take passes a value: flagged at the call.
func Take(p *immut.Prog) uint64 {
	return sum(*p) // want immutable `copies immut.Prog by value`
}

func sum(p immut.Prog) uint64 { return p.Len }
