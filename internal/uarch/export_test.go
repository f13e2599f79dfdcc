package uarch

// Hooks for the external tests in this directory.

// WakeHorizon exposes Config.wakeHorizon.
func (c Config) WakeHorizon() int { return c.wakeHorizon() }

// StoreRingCap returns the capacity of the in-flight store ring.
func (c *Core) StoreRingCap() int { return cap(c.stores) }

// Scribble dirties the state that a Run which drains the pipeline leaves
// clean — waiter bitmaps, the wake wheel, the ready mask, the ring
// positions — the way a Run cut short by the deadlock guard can leave
// it, so that the reset test shows Reset clears it.
func (c *Core) Scribble() {
	for _, words := range [][]uint64{c.waiters, c.wheel, c.wheelOcc, c.readyMask} {
		for i := range words {
			words[i] = ^uint64(0)
		}
	}
	for i := range c.stores {
		c.stores[i] = storeRef{slot: 1, ea: 2}
	}
	for i := range c.sb {
		c.sb[i] = sbEntry{ea: 1, draining: true, release: 2}
	}
	for i := range c.rob {
		c.rob[i] = robEntry{seq: 1, doneCycle: 2, readyAt: 3, pending: 1, issued: true}
	}
	c.storesHead, c.storesLen = 1, 1
	c.sbHead, c.sbLen = 1, 1
	c.head, c.tail, c.robCount, c.lsqCount = 1, 2, 1, 1
}
