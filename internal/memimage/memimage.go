// Package memimage provides functional (value-carrying) images of the
// simulated physical memory. The simulator keeps timing and data separate:
// caches and controllers model *when* accesses complete, while images model
// *what* each memory would contain. Keeping real 64-bit values in the
// durable NVM image, the transaction cache, the software log and the
// nonvolatile LLC is what makes crash/recovery testing functional rather
// than purely statistical.
//
// An Image stores words in 4 KiB pages (512 words each) keyed by page
// number. The workloads bump-allocate from fixed per-core address
// carvings (memaddr.PerCore*), so the words a run writes are dense and a
// page table holds them with little slack. Each page carries a written
// mask, one bit per word, that records which words were ever stored —
// zero-valued stores included — so Len and ForEach report exactly the
// written set while unwritten words still read zero. ForEach visits that
// set in ascending address order, which makes every walk over an image
// deterministic.
//
// An Image is not safe for concurrent use, not even by readers alone:
// ReadWord updates a one-entry last-page cache in front of the page table.
package memimage

import (
	"math/bits"
	"slices"

	"pmemaccel/internal/memaddr"
)

const (
	pageShift    = 12 // 4 KiB pages
	wordsPerPage = (1 << pageShift) / memaddr.WordSize
	maskWords    = wordsPerPage / 64
	lineMask     = uint64(1)<<memaddr.WordsPerLine - 1
)

// page holds one page's words and its written mask (bit i of
// written[i/64] set iff word i was ever stored). Unwritten words are zero.
type page struct {
	words   [wordsPerPage]uint64
	written [maskWords]uint64
}

// zeroPage stands in for an absent page when two images are compared.
// It is never written.
var zeroPage page

// Image is a sparse, word-granular memory content image. Unwritten words
// read as zero, matching hardware that zeroes (or never exposes) fresh
// pages. The zero value is NOT usable; call New.
type Image struct {
	pages map[uint64]*page // keyed by addr >> pageShift
	n     int              // words ever written: popcount of all masks
	// One-entry cache of the last page looked up; last is nil until a
	// lookup finds a page.
	lastKey uint64
	last    *page
}

// New returns an empty image.
func New() *Image {
	return &Image{pages: make(map[uint64]*page)}
}

// NewSized returns an empty image pre-sized for about n words, avoiding
// rehash churn when the caller knows the fill size up front (seeding the
// live/durable images from generated base images, building the expected
// recovery image).
func NewSized(n int) *Image {
	return &Image{pages: make(map[uint64]*page, n/wordsPerPage+1)}
}

// lookup returns the page holding addr, or nil when none was written.
func (m *Image) lookup(addr uint64) *page {
	k := addr >> pageShift
	if m.last != nil && k == m.lastKey {
		return m.last
	}
	p := m.pages[k]
	if p != nil {
		m.lastKey, m.last = k, p
	}
	return p
}

// pageFor returns the page holding addr, allocating it if needed.
func (m *Image) pageFor(addr uint64) *page {
	if p := m.lookup(addr); p != nil {
		return p
	}
	p := new(page)
	k := addr >> pageShift
	m.pages[k] = p
	m.lastKey, m.last = k, p
	return p
}

// wordIndex returns the index of addr's word within its page.
func wordIndex(addr uint64) uint {
	return uint(addr/memaddr.WordSize) % wordsPerPage
}

// ReadWord returns the 64-bit word at addr. addr is word-aligned by the
// caller's contract; misaligned addresses are aligned down.
func (m *Image) ReadWord(addr uint64) uint64 {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return p.words[wordIndex(addr)]
}

// WriteWord stores a 64-bit word at addr (aligned down).
func (m *Image) WriteWord(addr, value uint64) {
	p := m.pageFor(addr)
	i := wordIndex(addr)
	if bit := uint64(1) << (i % 64); p.written[i/64]&bit == 0 {
		p.written[i/64] |= bit
		m.n++
	}
	p.words[i] = value
}

// Written reports whether the word at addr was ever stored, including
// stores of zero.
func (m *Image) Written(addr uint64) bool {
	p := m.lookup(addr)
	if p == nil {
		return false
	}
	i := wordIndex(addr)
	return p.written[i/64]&(uint64(1)<<(i%64)) != 0
}

// ReadLine returns the 8 words of the cache line containing addr.
func (m *Image) ReadLine(addr uint64) [memaddr.WordsPerLine]uint64 {
	var line [memaddr.WordsPerLine]uint64
	if p := m.lookup(addr); p != nil {
		i := wordIndex(memaddr.LineAddr(addr))
		copy(line[:], p.words[i:])
	}
	return line
}

// WriteLine stores 8 words at the cache line containing addr. A line
// never straddles a page, and its 8 mask bits share one mask word.
func (m *Image) WriteLine(addr uint64, line [memaddr.WordsPerLine]uint64) {
	p := m.pageFor(addr)
	i := wordIndex(memaddr.LineAddr(addr))
	copy(p.words[i:], line[:])
	w := &p.written[i/64]
	bitsLine := lineMask << (i % 64)
	m.n += bits.OnesCount64(bitsLine &^ *w)
	*w |= bitsLine
}

// CopyLine copies the cache line containing addr from src into m. It is
// the writeback primitive: "the volatile version of this line becomes the
// durable version".
func (m *Image) CopyLine(src *Image, addr uint64) {
	m.WriteLine(addr, src.ReadLine(addr))
}

// Len reports the number of distinct words ever written.
func (m *Image) Len() int { return m.n }

// Snapshot returns an independent deep copy, used to capture the durable
// state at a crash point. The copied pages share one allocation.
func (m *Image) Snapshot() *Image {
	c := &Image{pages: make(map[uint64]*page, len(m.pages)), n: m.n}
	slab := make([]page, len(m.pages))
	i := 0
	for k, p := range m.pages {
		slab[i] = *p
		c.pages[k] = &slab[i]
		i++
	}
	return c
}

// Equal reports whether two images contain the same values at every word
// (treating absent words as zero).
func (m *Image) Equal(o *Image) bool {
	return m.DiffLimit(o, 1) == 0
}

// Diff is a single word-level difference between two images.
type Diff struct {
	Addr uint64
	A, B uint64
}

// DiffLimit counts word-level differences between m and o, stopping early
// once limit differences are found (limit <= 0 means unlimited).
func (m *Image) DiffLimit(o *Image, limit int) int {
	n := 0
	m.eachDiff(o, func(uint64, uint64, uint64) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// Diffs returns up to max word-level differences (max <= 0 means all),
// lowest addresses first, for diagnostics in failing tests.
func (m *Image) Diffs(o *Image, max int) []Diff {
	var out []Diff
	m.eachDiff(o, func(addr, a, b uint64) bool {
		out = append(out, Diff{Addr: addr, A: a, B: b})
		return max <= 0 || len(out) < max
	})
	return out
}

// eachDiff calls fn for every word whose value differs between m and o,
// in ascending address order, until fn returns false. Unwritten words
// are zero in a page's word array, so comparing values alone treats a
// written zero as equal to an absent word.
func (m *Image) eachDiff(o *Image, fn func(addr, a, b uint64) bool) {
	for _, k := range sortedPages(m, o) {
		pm, po := m.pages[k], o.pages[k]
		if pm == nil {
			pm = &zeroPage
		}
		if po == nil {
			po = &zeroPage
		}
		if pm.words == po.words {
			continue
		}
		base := k << pageShift
		for i, a := range &pm.words {
			if b := po.words[i]; a != b {
				if !fn(base+uint64(i)*memaddr.WordSize, a, b) {
					return
				}
			}
		}
	}
}

// ForEach visits every written word in ascending address order.
func (m *Image) ForEach(fn func(addr, value uint64)) {
	for _, k := range sortedPages(m) {
		p := m.pages[k]
		base := k << pageShift
		for j, w := range p.written {
			for w != 0 {
				i := j*64 + bits.TrailingZeros64(w)
				w &= w - 1
				fn(base+uint64(i)*memaddr.WordSize, p.words[i])
			}
		}
	}
}

// sortedPages returns the page numbers present in any of imgs, ascending
// and without duplicates.
func sortedPages(imgs ...*Image) []uint64 {
	n := 0
	for _, m := range imgs {
		n += len(m.pages)
	}
	keys := make([]uint64, 0, n)
	for _, m := range imgs {
		for k := range m.pages {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}
