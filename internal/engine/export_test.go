package engine

// FreeLaunchers returns how many launchers the free list holds.
func FreeLaunchers() int { return launchers.Len() }
