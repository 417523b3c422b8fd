package sim

// Pool is a freelist of request records: the per-request state a
// component hands to the kernel or to another component as a callback.
// A record's callbacks are method values bound once, when New builds the
// record, so taking a record from the pool and scheduling its callback
// allocates nothing.
//
// Ownership: the component that owns the pool takes a record when it
// starts a request and puts it back exactly once, from the record's last
// callback, after copying out every field it still needs. A record must
// not be touched after Put. A Pool is not safe for concurrent use; under
// the parallel kernel a component takes records in its Tick and returns
// them in events, which the wave barrier keeps apart.
type Pool[T any] struct {
	free []*T
	// New builds a fresh record when the freelist is empty.
	New func() *T
}

// Get returns a free record, building one when none is free. Its fields
// hold whatever the previous user left; the caller sets every field the
// request reads.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return p.New()
}

// Put returns r to the freelist.
func (p *Pool[T]) Put(r *T) { p.free = append(p.free, r) }
