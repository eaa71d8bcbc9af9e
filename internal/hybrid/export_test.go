package hybrid

// NewUnpooled returns a detector that never came from New's pool.
func NewUnpooled() *Detector { return pool.New().(*Detector) }

// Recycle empties d as Release does, without handing it to the pool, so a
// test knows the next run reuses d's storage.
func (d *Detector) Recycle() { d.reset() }
