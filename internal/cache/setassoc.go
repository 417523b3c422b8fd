// Package cache implements the processor cache hierarchy: a generic
// set-associative write-back tag array and the three-level (private L1 and
// L2, shared LLC) timing model the cores access memory through.
//
// The hierarchy is deliberately mechanism-agnostic — "leave the cache
// hierarchy operation as it is". The persistence schemes under evaluation
// plug in through a small Hooks struct: the transaction-cache design drops
// persistent LLC evictions and probes its side path on LLC misses; the
// Kiln baseline pins uncommitted lines in the (nonvolatile) LLC; software
// logging and the Optimal baseline leave every hook at its zero value.
package cache

import (
	"fmt"
	"math/bits"

	"pmemaccel/internal/memaddr"
)

// Line is one tag-array entry.
type Line struct {
	// Addr is the line address (tag + index bits). Meaningful only when
	// Valid.
	Addr  uint64
	Valid bool
	Dirty bool
	// Persistent is the P/V flag of §4.3: set by persistent stores so
	// the (unmodified) hierarchy can tell persistent lines apart at
	// eviction.
	Persistent bool
	// TxID is the owning transaction of an uncommitted dirty line
	// (Kiln bookkeeping; zero otherwise).
	TxID uint64
	// Uncommitted marks Kiln lines that may not leave the LLC until
	// their transaction commits.
	Uncommitted bool

	lastUse uint64
}

// SetAssoc is an LRU set-associative tag array. It carries no data values;
// the simulator's functional state lives in memory images.
//
// The tag index keeps one bit per set (tagged) plus one summary bit per
// word of tagged (summary). Its invariant is a superset one: every set
// holding a line with a nonzero TxID has its bit set, and every nonzero
// word of tagged has its summary bit set. Set, the only writer of a
// nonzero TxID, sets both bits; ForEachTagged clears them lazily once a
// walk finds a set (or word) with no tagged line left. Clearing a TxID
// never needs the index, so callers may zero TxID directly.
type SetAssoc struct {
	name    string
	sets    int
	ways    int
	shift   uint // log2(sets) for index extraction
	lines   []Line
	clock   uint64
	tagged  []uint64
	summary []uint64

	// Stats.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// NewSetAssoc builds a cache of sizeBytes with the given associativity.
// sizeBytes must yield a power-of-two, nonzero set count.
func NewSetAssoc(name string, sizeBytes, ways int) *SetAssoc {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %d bytes / %d ways", name, sizeBytes, ways))
	}
	sets := sizeBytes / memaddr.LineSize / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d bytes / %d ways gives %d sets (need nonzero power of two)",
			name, sizeBytes, ways, sets))
	}
	return &SetAssoc{
		name:    name,
		sets:    sets,
		ways:    ways,
		shift:   uint(bits.TrailingZeros(uint(sets))),
		lines:   make([]Line, sets*ways),
		tagged:  make([]uint64, (sets+63)/64),
		summary: make([]uint64, (sets+64*64-1)/(64*64)),
	}
}

// Name returns the label given at construction.
func (c *SetAssoc) Name() string { return c.name }

// Sets and Ways report the geometry.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// SizeBytes reports the capacity.
func (c *SetAssoc) SizeBytes() int { return c.sets * c.ways * memaddr.LineSize }

func (c *SetAssoc) setOf(lineAddr uint64) int {
	return int((lineAddr / memaddr.LineSize) & uint64(c.sets-1))
}

func (c *SetAssoc) set(lineAddr uint64) []Line {
	s := c.setOf(lineAddr)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup returns the line holding lineAddr, or nil. When touch is true the
// access updates LRU state and hit/miss counters; probes (touch=false)
// leave both untouched.
func (c *SetAssoc) Lookup(lineAddr uint64, touch bool) *Line {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].Valid && set[i].Addr == lineAddr {
			if touch {
				c.clock++
				set[i].lastUse = c.clock
				c.Hits++
			}
			return &set[i]
		}
	}
	if touch {
		c.Misses++
	}
	return nil
}

// Insert installs lineAddr, evicting if needed. allowVictim (nil = allow
// all) filters which valid lines may be chosen as the LRU victim — the
// Kiln pinning hook. It returns the evicted line (valid only if evicted)
// and the installed line. ok is false when every candidate way is vetoed;
// the line is then NOT installed and the caller must resolve the pressure
// (Kiln's stall-and-drain path).
//
// Inserting an address that is already present is a programming error and
// panics: callers must Lookup first.
func (c *SetAssoc) Insert(lineAddr uint64, allowVictim func(*Line) bool) (evicted Line, installed *Line, ok bool) {
	set := c.set(lineAddr)
	victim := -1
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].Addr == lineAddr {
			panic(fmt.Sprintf("cache %s: double insert of line %#x", c.name, lineAddr))
		}
	}
	if victim < 0 {
		var oldest uint64 = ^uint64(0)
		for i := range set {
			if allowVictim != nil && !allowVictim(&set[i]) {
				continue
			}
			if set[i].lastUse < oldest {
				oldest = set[i].lastUse
				victim = i
			}
		}
		if victim < 0 {
			return Line{}, nil, false
		}
		evicted = set[victim]
		c.Evictions++
		if evicted.Dirty {
			c.DirtyEvictions++
		}
	}
	c.clock++
	set[victim] = Line{Addr: lineAddr, Valid: true, lastUse: c.clock}
	return evicted, &set[victim], true
}

// Invalidate removes lineAddr if present, returning the removed line.
func (c *SetAssoc) Invalidate(lineAddr uint64) (Line, bool) {
	if l := c.Lookup(lineAddr, false); l != nil {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// Set replaces the contents of slot l, a line of c, with v. It is the
// only way a nonzero TxID enters a slot: it marks v's set in the tag
// index, so ForEachTagged finds the line.
func (c *SetAssoc) Set(l *Line, v Line) {
	*l = v
	if v.TxID != 0 {
		s := c.setOf(v.Addr)
		c.tagged[s/64] |= 1 << uint(s%64)
		c.summary[s/(64*64)] |= 1 << uint(s/64%64)
	}
}

// ForEachTagged visits every valid line of every set in the tag index,
// in ascending slot order. Since every line with a nonzero TxID lives in
// an indexed set, a callback that acts only on lines with a nonzero TxID
// sees exactly the lines, in the same order, that ForEach would give it.
// The callback may mutate the line but must not invalidate it or set a
// nonzero TxID other than through Set. Sets left without a tagged line
// drop out of the index; a set first tagged by the callback itself may
// or may not be visited.
func (c *SetAssoc) ForEachTagged(fn func(*Line)) {
	for sw, sum := range c.summary {
		for sum != 0 {
			wb := bits.TrailingZeros64(sum)
			sum &= sum - 1
			w := sw*64 + wb
			for rest := c.tagged[w]; rest != 0; rest &= rest - 1 {
				b := bits.TrailingZeros64(rest)
				s := w*64 + b
				set := c.lines[s*c.ways : (s+1)*c.ways]
				keep := false
				for i := range set {
					if set[i].Valid {
						fn(&set[i])
					}
					keep = keep || set[i].TxID != 0
				}
				if !keep {
					c.tagged[w] &^= 1 << uint(b)
				}
			}
			if c.tagged[w] == 0 {
				c.summary[sw] &^= 1 << uint(wb)
			}
		}
	}
}

// ForEach visits every valid line. The callback may mutate the line but
// must not invalidate it.
func (c *SetAssoc) ForEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].Valid {
			fn(&c.lines[i])
		}
	}
}

// ValidCount reports the number of valid lines.
func (c *SetAssoc) ValidCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid {
			n++
		}
	}
	return n
}

// MissRate returns Misses / (Hits + Misses), or 0 before any access.
func (c *SetAssoc) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
