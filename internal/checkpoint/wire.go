package checkpoint

import (
	"fmt"
	"io"
)

// EncodeSet writes set, keyed by k, to w in the store's entry byte
// stream — the exact bytes Store.Save would put on disk. It is the wire
// form the distributed sampling service (internal/dist) ships captured
// sweeps with: the coordinator sweeps, and every worker decodes an
// identical Set, so fleet-wide sweep sharing reuses the store codec
// instead of inventing a second serialization.
func EncodeSet(w io.Writer, k Key, set *Set) error {
	if err := encodeSet(w, k, set); err != nil {
		return fmt.Errorf("checkpoint: encode set: %w", err)
	}
	return nil
}

func encodeSet(w io.Writer, k Key, set *Set) error {
	enc, err := newSetEncoder(w, k, set.PopulationUnits)
	if err != nil {
		return err
	}
	for _, u := range set.Units {
		if err := enc.add(u); err != nil {
			return err
		}
	}
	return enc.finish(set.SweepInsts, set.SweepTime)
}

// DecodeSet reads one EncodeSet (or store-file) byte stream from r and
// reconstructs the Set. The expected key k guards the transfer the same
// way the store's manifest check guards a load: a stream whose embedded
// key does not match k (stale derivation, wrong entry, corruption)
// fails loudly rather than materializing foreign launch states.
func DecodeSet(r io.Reader, k Key) (*Set, error) {
	set, err := readSet(r, k)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode set: %w", err)
	}
	return set, nil
}

// ExpectedUnits returns the number of units a capture sweep with p
// selects from a population of pop units (Summary.PopulationUnits /
// prog.Length/U) — the boundary generator's count without running the
// sweep. Per offset j the selected unit indices are j, j+K, j+2K, ...
// below pop, capped at MaxUnits. The engine's progress totals and the
// distributed coordinator's shard ranges are sized from it up front;
// the actual captured count can only fall short when the program halts
// before a launch boundary, which consumers clamp against.
func (p Params) ExpectedUnits(pop uint64) int {
	total := 0
	for _, j := range p.offsets() {
		if pop <= j {
			continue
		}
		n := int((pop-1-j)/p.K) + 1
		if p.MaxUnits > 0 && n > p.MaxUnits {
			n = p.MaxUnits
		}
		total += n
	}
	return total
}
