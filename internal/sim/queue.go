package sim

import "math/bits"

// event is a callback scheduled for a future cycle. seq breaks ties so that
// two events scheduled for the same cycle fire in schedule order.
type event struct {
	cycle uint64
	seq   uint64
	fn    func()
}

// before orders events by (cycle, seq) — the same total order the old
// container/heap implementation used, so firing order (and therefore
// every simulation result) is unchanged.
func (e event) before(o event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// eventHeap is a typed 4-ary min-heap keyed by (cycle, seq). Unlike
// container/heap it never boxes events through interface{}, so push
// does not allocate per event (only amortized slice growth). Because
// (cycle, seq) is a total order, pop order is independent of heap shape.
// The kernel keeps it only for events beyond the timing wheel's horizon.
type eventHeap struct {
	a []event
}

const heapArity = 4

func (h *eventHeap) len() int { return len(h.a) }

// head returns the minimum event without removing it. Caller guarantees
// len() > 0.
func (h *eventHeap) head() event { return h.a[0] }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.a[i].before(h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	root := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // drop the fn reference so the closure can be collected
	h.a = h.a[:n]
	i := 0
	for {
		min := i
		first := heapArity*i + 1
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h.a[c].before(h.a[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
	return root
}

// The timing wheel covers the wheelSize-1 cycles after now: an event due
// at cycle c with c-now < wheelSize lives in slot c&wheelMask. Slot
// now&wheelMask is the one being fired (or already empty), so no two
// pending cycles ever share a slot.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// wheelNode is one pending event in a slot's FIFO. Nodes live in a pooled
// slice and link by index; index 0 is the nil link, so the zero
// eventQueue is ready to use.
type wheelNode struct {
	fn   func()
	next int32
}

// wheelSlot is the FIFO of one cycle's events, head and tail node
// indices (0 = empty).
type wheelSlot struct {
	head, tail int32
}

// eventQueue is the kernel's event queue: a timing wheel of per-cycle
// FIFOs for events due within wheelSize cycles, with the (cycle, seq)
// heap as the overflow for farther ones.
//
// Firing order is exactly (cycle, seq). Within a slot, events append in
// schedule order, which is seq order. Between the two structures: an
// overflow event for cycle c was scheduled at least wheelSize cycles
// before c, and a slot event for c less than wheelSize cycles before c,
// so every overflow event for c carries a smaller seq than every slot
// event for c, and firing the overflow first is the (cycle, seq) order.
type eventQueue struct {
	slots [wheelSize]wheelSlot
	// occ has bit s set when slot s is nonempty: the next-event search
	// scans 16 words instead of 1024 slots.
	occ   [wheelSize / 64]uint64
	nodes []wheelNode
	free  int32 // head of the recycled-node list (0 = none)
	n     int   // events in the wheel
	far   eventHeap
}

// len reports the pending event count.
func (q *eventQueue) len() int { return q.n + q.far.len() }

// push enqueues fn for cycle (> now) with tie-break seq.
func (q *eventQueue) push(now, cycle, seq uint64, fn func()) {
	if cycle-now >= wheelSize {
		q.far.push(event{cycle: cycle, seq: seq, fn: fn})
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = wheelNode{fn: fn}
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, wheelNode{}) // index 0: the nil link
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, wheelNode{fn: fn})
	}
	s := int(cycle & wheelMask)
	sl := &q.slots[s]
	if sl.head == 0 {
		sl.head = i
		q.occ[s>>6] |= 1 << uint(s&63)
	} else {
		q.nodes[sl.tail].next = i
	}
	sl.tail = i
	q.n++
}

// fire runs every event due at cycle now, in (cycle, seq) order. Events
// scheduled while firing land at now+1 or later, never in the slot being
// drained (now+wheelSize overflows to the heap).
func (q *eventQueue) fire(now uint64) {
	for q.far.len() > 0 && q.far.head().cycle <= now {
		q.far.pop().fn()
	}
	s := int(now & wheelMask)
	sl := &q.slots[s]
	for sl.head != 0 {
		i := sl.head
		nd := &q.nodes[i]
		fn := nd.fn
		sl.head = nd.next
		nd.fn = nil // drop the reference so the closure can be collected
		nd.next = q.free
		q.free = i
		q.n--
		if sl.head == 0 {
			q.occ[s>>6] &^= 1 << uint(s&63)
		}
		fn()
	}
}

// next reports the earliest pending event's cycle, which is after now.
func (q *eventQueue) next(now uint64) (uint64, bool) {
	var c uint64
	ok := false
	if q.n > 0 {
		c, ok = now+1+uint64(q.distance(int((now+1)&wheelMask))), true
	}
	if q.far.len() > 0 {
		if h := q.far.head().cycle; !ok || h < c {
			c, ok = h, true
		}
	}
	return c, ok
}

// distance returns how many slots past start (circularly) the first
// nonempty slot lies. Caller guarantees the wheel is nonempty.
func (q *eventQueue) distance(start int) int {
	w := start >> 6
	word := q.occ[w] &^ (1<<uint(start&63) - 1)
	for {
		if word != 0 {
			return ((w<<6 | bits.TrailingZeros64(word)) - start) & wheelMask
		}
		w = (w + 1) & (len(q.occ) - 1)
		word = q.occ[w]
	}
}
