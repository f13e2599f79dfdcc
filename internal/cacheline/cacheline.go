// Package cacheline keeps one goroutine's hot state off the cache lines
// another goroutine writes.
//
// A replay worker, the sweep's interpreter stage and its warm stage
// each write their own machine, core, CPU and memory on every simulated
// instruction. The allocator packs objects of one size class back to
// back, so two workers' structs of the same type usually sit next to
// each other, and a line holding the tail of one and the head of the
// other ping-pongs between cores on every write — false sharing, which
// costs as much as sharing the data would. A struct that starts and ends
// with a Pad has no byte of its own on a line any other heap object
// reaches: with Pad at least one line wide, the nearest foreign byte is
// a whole Pad away from its fields.
//
// Size is the x86-64 line, 64 bytes. Pads of two lines (for the
// adjacent-line prefetcher of Intel cores) measured no better on the
// replay benchmark, so the constant is the hardware's line. The pads
// only move fields, so no result depends on them.
//
// simlint's padding analyzer holds the layout: a struct with a
// //simlint:hotpath pointer-receiver method starts and ends with a Pad
// field, or says why not with //simlint:unpadded <reason>.
package cacheline

// Size is the width of a Pad in bytes: the span of memory that one
// writer owns alone on either side of a padded struct's fields.
const Size = 64

// Pad is the blank field a padded struct declares first and last:
//
//	type T struct {
//		_ cacheline.Pad
//		...
//		_ cacheline.Pad
//	}
type Pad [Size]byte
