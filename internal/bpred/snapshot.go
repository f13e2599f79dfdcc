package bpred

import (
	"fmt"

	"repro/internal/delta"
)

// State is a serializable snapshot of the prediction unit's trained
// state: direction counters, global history, BTB contents, and the
// return address stack. Statistics are excluded, matching the cache
// snapshot convention.
//
//simlint:unpadded a launch-state snapshot: a launch writes its scalars once per unit, never per instruction
type State struct {
	Bimodal, Gshare, Chooser []uint8
	History                  uint64

	BTBTags, BTBTgts []uint64
	BTBValid         []bool
	BTBLRU           []uint64
	BTBStamp         uint64

	RAS    []uint64
	RASTop int
}

// Snapshot captures the unit's trained state into arrays carved from a
// (fresh ones for a nil a). It is the keyframe of the predictor's delta
// chain: dirty tracking restarts here, so the next Delta carries exactly
// the blocks touched from this point on.
func (u *Unit) Snapshot(a *delta.Arena) *State {
	u.tblDirty.Reset()
	u.btbDirty.Reset()
	u.chain.Keyframe()
	s := &State{
		Bimodal:  delta.Clone(a, u.bimodal),
		Gshare:   delta.Clone(a, u.gshare),
		Chooser:  delta.Clone(a, u.chooser),
		History:  u.history,
		BTBTags:  delta.Clone(a, u.btbTags),
		BTBTgts:  delta.Clone(a, u.btbTgts),
		BTBValid: delta.Clone(a, u.btbValid),
		BTBLRU:   delta.Clone(a, u.btbLRU),
		BTBStamp: u.btbStamp,
		RAS:      delta.Clone(a, u.ras),
		RASTop:   u.rasTop,
	}
	return s
}

// Restore overwrites the unit's trained state with a snapshot taken from
// a unit of identical configuration. Stats are left untouched.
//
//simlint:hotpath
func (u *Unit) Restore(s *State) error {
	if len(s.Bimodal) != len(u.bimodal) || len(s.BTBTags) != len(u.btbTags) || len(s.RAS) != len(u.ras) {
		//simlint:coldpath geometry mismatch; a configuration error, never taken on a replaying worker
		return fmt.Errorf("bpred: snapshot geometry mismatch (tables %d/%d, BTB %d/%d, RAS %d/%d)",
			len(s.Bimodal), len(u.bimodal), len(s.BTBTags), len(u.btbTags), len(s.RAS), len(u.ras))
	}
	// Bound the stack pointer: restoring an out-of-range top (a corrupt
	// deserialized snapshot) would make the next RAS access panic.
	if s.RASTop < 0 || s.RASTop > len(u.ras) {
		//simlint:coldpath corrupt snapshot; never taken on a replaying worker
		return fmt.Errorf("bpred: snapshot RAS top %d out of range (%d entries)", s.RASTop, len(u.ras))
	}
	copy(u.bimodal, s.Bimodal)
	copy(u.gshare, s.Gshare)
	copy(u.chooser, s.Chooser)
	u.history = s.History
	copy(u.btbTags, s.BTBTags)
	copy(u.btbTgts, s.BTBTgts)
	copy(u.btbValid, s.BTBValid)
	copy(u.btbLRU, s.BTBLRU)
	u.btbStamp = s.BTBStamp
	copy(u.ras, s.RAS)
	u.rasTop = s.RASTop
	u.markAllDirty() // every entry may differ from the last delta baseline
	return nil
}
