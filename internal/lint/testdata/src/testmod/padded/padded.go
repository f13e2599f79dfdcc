// Package padded seeds padding-analyzer cases: structs with hot-path
// pointer-receiver methods, padded, exempt and bare.
package padded

import "testmod/internal/cacheline"

// Counter starts and ends with a pad: clean.
type Counter struct {
	_ cacheline.Pad
	n uint64
	_ cacheline.Pad
}

// Inc is on the hot path.
//
//simlint:hotpath
func (c *Counter) Inc() { c.n++ }

// View only reads the counter it wraps: clean, with a reason.
//
//simlint:unpadded read-only wrapper: its hot methods write nothing
type View struct{ c *Counter }

// Get is on the hot path.
//
//simlint:hotpath
func (v *View) Get() uint64 { return v.c.n }

// Bare is written on the hot path with no pads: flagged.
type Bare struct { // want padding `struct Bare has //simlint:hotpath methods but does not start and end with a cacheline.Pad field`
	n uint64
}

// Inc is on the hot path.
//
//simlint:hotpath
func (b *Bare) Inc() { b.n++ }

// Half pads only its head: flagged.
type Half struct { // want padding `struct Half has //simlint:hotpath methods`
	_ cacheline.Pad
	n uint64
}

// Inc is on the hot path.
//
//simlint:hotpath
func (h *Half) Inc() { h.n++ }

// Value has only a value-receiver hot method, so no goroutine writes
// it through one: clean.
type Value struct{ n uint64 }

// Get is on the hot path.
//
//simlint:hotpath
func (v Value) Get() uint64 { return v.n }

// Cold has pointer-receiver methods, none on the hot path: clean.
type Cold struct{ n uint64 }

// Inc is not on the hot path.
func (c *Cold) Inc() { c.n++ }
