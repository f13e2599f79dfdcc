// Package cacheline is the testmod stand-in for the module's pad type.
package cacheline

// Pad keeps a struct's fields off its neighbours' cache lines.
type Pad [128]byte
