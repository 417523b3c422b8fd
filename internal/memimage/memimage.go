// Package memimage provides functional (value-carrying) images of the
// simulated physical memory. The simulator keeps timing and data separate:
// caches and controllers model *when* accesses complete, while images model
// *what* each memory would contain. Keeping real 64-bit values in the
// durable NVM image, the transaction cache, the software log and the
// nonvolatile LLC is what makes crash/recovery testing functional rather
// than purely statistical.
//
// An Image stores words in 4 KiB pages (512 words each), grouped into
// 2 MiB directories of 512 page pointers. The directories sit in a slice
// kept in ascending address order, so every walk over an image (ForEach,
// Snapshot, the diffs) visits pages in address order without sorting, and
// a directory is found by binary search. A one-entry last-page cache
// sits in front of that search, so a typical access costs a compare and
// no hashing. The workloads bump-allocate from fixed per-core address
// carvings (memaddr.PerCore*), so the words a run writes are dense and an
// image holds few directories (at most a few dozen), which keeps the
// search short.
// Each page carries a written mask, one bit per word, that records which
// words were ever stored — zero-valued stores included — so Len and
// ForEach report exactly the written set while unwritten words still
// read zero.
//
// An Image is not safe for concurrent use, not even by readers alone:
// ReadWord updates the last-page cache.
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

	dirShift    = 21 // 2 MiB directories
	pagesPerDir = 1 << (dirShift - pageShift)
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

// dir is one 2 MiB directory: the pages of addresses num<<dirShift up to
// the next directory, nil where no word was written.
type dir struct {
	num   uint64
	pages [pagesPerDir]*page
}

// Image is a sparse, word-granular memory content image. Unwritten words
// read as zero, matching hardware that zeroes (or never exposes) fresh
// pages. The zero value is an empty image.
type Image struct {
	// dirs holds the directories in ascending order; nums[i] is
	// dirs[i].num, kept contiguous so the search stays in cache.
	dirs []*dir
	nums []uint64
	n    int // words ever written: popcount of all masks
	// last is the page of the last lookup that found one, lastKey its
	// page number.
	lastKey uint64
	last    *page
}

// New returns an empty image.
func New() *Image { return &Image{} }

// search returns the index of directory num in m.dirs, or where it would
// be inserted, and whether it is present.
func (m *Image) search(num uint64) (int, bool) {
	// A branch-free lower-bound search: the loop's one comparison
	// compiles to a conditional move, so a lookup past the last-page
	// cache costs no mispredicted branches.
	nums := m.nums
	lo, n := 0, len(nums)
	if n == 0 {
		return 0, false
	}
	for n > 1 {
		half := n / 2
		if nums[lo+half] < num {
			lo += half
		}
		n -= half
	}
	if nums[lo] < num {
		lo++
	}
	return lo, lo < len(nums) && nums[lo] == num
}

// dir returns directory num, or nil when none was written.
func (m *Image) dir(num uint64) *dir {
	i, ok := m.search(num)
	if !ok {
		return nil
	}
	return m.dirs[i]
}

// lookup returns the page holding addr, or nil when none was written.
// The last-page check is kept small enough to inline.
func (m *Image) lookup(addr uint64) *page {
	if m.last != nil && addr>>pageShift == m.lastKey {
		return m.last
	}
	return m.lookupDir(addr)
}

// lookupDir is lookup past the last-page cache.
func (m *Image) lookupDir(addr uint64) *page {
	k := addr >> pageShift
	d := m.dir(addr >> dirShift)
	if d == nil {
		return nil
	}
	p := d.pages[k%pagesPerDir]
	if p != nil {
		m.lastKey, m.last = k, p
	}
	return p
}

// pageFor returns the page holding addr, allocating it (and its
// directory) if needed.
func (m *Image) pageFor(addr uint64) *page {
	if p := m.lookup(addr); p != nil {
		return p
	}
	num := addr >> dirShift
	i, ok := m.search(num)
	if !ok {
		m.dirs = slices.Insert(m.dirs, i, &dir{num: num})
		m.nums = slices.Insert(m.nums, i, num)
	}
	d := m.dirs[i]
	p := new(page)
	k := addr >> pageShift
	d.pages[k%pagesPerDir] = p
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
// state at a crash point. The copied directories share one allocation,
// and so do the copied pages.
func (m *Image) Snapshot() *Image {
	np := 0
	for _, d := range m.dirs {
		for _, p := range &d.pages {
			if p != nil {
				np++
			}
		}
	}
	c := &Image{dirs: make([]*dir, len(m.dirs)), nums: slices.Clone(m.nums), n: m.n}
	dslab := make([]dir, len(m.dirs))
	slab := make([]page, np)
	for i, d := range m.dirs {
		cd := &dslab[i]
		cd.num = d.num
		for j, p := range &d.pages {
			if p != nil {
				slab[0] = *p
				cd.pages[j] = &slab[0]
				slab = slab[1:]
			}
		}
		c.dirs[i] = cd
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
// in ascending address order, until fn returns false. It merges the two
// ascending directory lists. Unwritten words are zero in a page's word
// array, so comparing values alone treats a written zero as equal to an
// absent word.
func (m *Image) eachDiff(o *Image, fn func(addr, a, b uint64) bool) {
	i, j := 0, 0
	for i < len(m.dirs) || j < len(o.dirs) {
		var dm, do *dir
		switch {
		case j == len(o.dirs) || i < len(m.dirs) && m.dirs[i].num < o.dirs[j].num:
			dm = m.dirs[i]
			i++
		case i == len(m.dirs) || o.dirs[j].num < m.dirs[i].num:
			do = o.dirs[j]
			j++
		default:
			dm, do = m.dirs[i], o.dirs[j]
			i++
			j++
		}
		if !diffDir(dm, do, fn) {
			return
		}
	}
}

// diffDir is eachDiff over one directory number, present in dm, do or
// both (a nil side reads zero). It reports whether to continue.
func diffDir(dm, do *dir, fn func(addr, a, b uint64) bool) bool {
	var num uint64
	if dm != nil {
		num = dm.num
	} else {
		num = do.num
	}
	for s := range pagesPerDir {
		pm, po := &zeroPage, &zeroPage
		if dm != nil && dm.pages[s] != nil {
			pm = dm.pages[s]
		}
		if do != nil && do.pages[s] != nil {
			po = do.pages[s]
		}
		if pm == po || pm.words == po.words {
			continue
		}
		base := num<<dirShift | uint64(s)<<pageShift
		for i, a := range &pm.words {
			if b := po.words[i]; a != b {
				if !fn(base+uint64(i)*memaddr.WordSize, a, b) {
					return false
				}
			}
		}
	}
	return true
}

// ForEach visits every written word in ascending address order.
func (m *Image) ForEach(fn func(addr, value uint64)) {
	for _, d := range m.dirs {
		for s, p := range &d.pages {
			if p == nil {
				continue
			}
			base := d.num<<dirShift | uint64(s)<<pageShift
			for j, w := range p.written {
				for w != 0 {
					i := j*64 + bits.TrailingZeros64(w)
					w &= w - 1
					fn(base+uint64(i)*memaddr.WordSize, p.words[i])
				}
			}
		}
	}
}
