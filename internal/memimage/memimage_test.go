package memimage

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pmemaccel/internal/memaddr"
)

func TestUnwrittenWordsReadZero(t *testing.T) {
	m := New()
	if m.ReadWord(memaddr.NVMBase) != 0 {
		t.Fatal("fresh image returned nonzero word")
	}
}

func TestWriteReadWord(t *testing.T) {
	m := New()
	m.WriteWord(memaddr.NVMBase+8, 0xdeadbeef)
	if got := m.ReadWord(memaddr.NVMBase + 8); got != 0xdeadbeef {
		t.Fatalf("ReadWord = %#x, want 0xdeadbeef", got)
	}
}

func TestMisalignedAccessAlignsDown(t *testing.T) {
	m := New()
	m.WriteWord(100, 7) // aligns to 96
	if got := m.ReadWord(96); got != 7 {
		t.Fatalf("ReadWord(96) = %d, want 7", got)
	}
	if got := m.ReadWord(103); got != 7 {
		t.Fatalf("ReadWord(103) = %d, want 7 (same word)", got)
	}
}

func TestLineRoundTrip(t *testing.T) {
	m := New()
	var line [memaddr.WordsPerLine]uint64
	for i := range line {
		line[i] = uint64(i * 11)
	}
	m.WriteLine(memaddr.NVMBase+128, line)
	got := m.ReadLine(memaddr.NVMBase + 128 + 24) // any addr in line
	if got != line {
		t.Fatalf("ReadLine = %v, want %v", got, line)
	}
}

func TestCopyLine(t *testing.T) {
	src, dst := New(), New()
	for i := 0; i < memaddr.WordsPerLine; i++ {
		src.WriteWord(memaddr.NVMBase+uint64(i*8), uint64(i+1))
	}
	dst.CopyLine(src, memaddr.NVMBase+16)
	for i := 0; i < memaddr.WordsPerLine; i++ {
		if got := dst.ReadWord(memaddr.NVMBase + uint64(i*8)); got != uint64(i+1) {
			t.Fatalf("word %d = %d after CopyLine, want %d", i, got, i+1)
		}
	}
}

// A snapshot shares no page with its source: overwriting every word of
// every page in either image, and writing a fresh page, leaves the other
// untouched.
func TestSnapshotIsIndependent(t *testing.T) {
	const words = 3 * wordsPerPage
	base := memaddr.PerCoreNVM(1).Base
	past := base + words*memaddr.WordSize // first word of a fresh page
	fill := func(m *Image, v uint64) {
		for i := uint64(0); i < words; i++ {
			m.WriteWord(base+i*memaddr.WordSize, v+i)
		}
	}
	check := func(name string, m *Image, v, pastV uint64, wantLen int) {
		t.Helper()
		for i := uint64(0); i < words; i++ {
			if got := m.ReadWord(base + i*memaddr.WordSize); got != v+i {
				t.Fatalf("%s: word %d = %d, want %d", name, i, got, v+i)
			}
		}
		if got := m.ReadWord(past); got != pastV || m.Len() != wantLen {
			t.Fatalf("%s: fresh-page word %d (want %d), Len %d (want %d)", name, got, pastV, m.Len(), wantLen)
		}
	}
	src := New()
	fill(src, 1)
	snap := src.Snapshot()
	fill(src, 1000)
	src.WriteWord(past, 5)
	check("snapshot after source writes", snap, 1, 0, words)
	fill(snap, 2000)
	snap.WriteWord(past, 6)
	check("source after snapshot writes", src, 1000, 5, words+1)
	check("snapshot", snap, 2000, 6, words+1)
}

func TestEqualAndDiff(t *testing.T) {
	a, b := New(), New()
	a.WriteWord(8, 1)
	b.WriteWord(8, 1)
	if !a.Equal(b) {
		t.Fatal("identical images not Equal")
	}
	b.WriteWord(16, 9)
	if a.Equal(b) {
		t.Fatal("different images Equal")
	}
	diffs := a.Diffs(b, 10)
	if len(diffs) != 1 || diffs[0].Addr != 16 || diffs[0].A != 0 || diffs[0].B != 9 {
		t.Fatalf("Diffs = %+v, want one diff at 16 (0 vs 9)", diffs)
	}
}

func TestExplicitZeroWriteEqualsAbsent(t *testing.T) {
	a, b := New(), New()
	a.WriteWord(8, 0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("explicit zero should compare equal to unwritten")
	}
}

func TestDiffLimitStopsEarly(t *testing.T) {
	a, b := New(), New()
	for i := uint64(0); i < 100; i++ {
		a.WriteWord(i*8, i+1)
	}
	if got := a.DiffLimit(b, 5); got != 5 {
		t.Fatalf("DiffLimit(5) = %d, want 5", got)
	}
	if got := a.DiffLimit(b, 0); got != 100 {
		t.Fatalf("DiffLimit(0) = %d, want 100", got)
	}
}

func TestForEachVisitsAllWrites(t *testing.T) {
	m := New()
	want := map[uint64]uint64{8: 1, 16: 2, 24: 3}
	for a, v := range want {
		m.WriteWord(a, v)
	}
	got := map[uint64]uint64{}
	m.ForEach(func(a, v uint64) { got[a] = v })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d words, want %d", len(got), len(want))
	}
	for a, v := range want {
		if got[a] != v {
			t.Fatalf("ForEach got[%d] = %d, want %d", a, got[a], v)
		}
	}
}

// Property: a line write followed by word reads reconstructs the line, and
// word writes followed by a line read reconstructs the words.
func TestQuickLineWordAgreement(t *testing.T) {
	f := func(base uint64, line [memaddr.WordsPerLine]uint64) bool {
		base = memaddr.LineAddr(base)
		m := New()
		m.WriteLine(base, line)
		for i := range line {
			if m.ReadWord(base+uint64(i)*memaddr.WordSize) != line[i] {
				return false
			}
		}
		n := New()
		for i := range line {
			n.WriteWord(base+uint64(i)*memaddr.WordSize, line[i])
		}
		return n.ReadLine(base) == line
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Snapshot is Equal to the original, and Diff of an image with
// itself is empty.
func TestQuickSnapshotEqual(t *testing.T) {
	f := func(writes []struct {
		A uint64
		V uint64
	}) bool {
		m := New()
		for _, w := range writes {
			m.WriteWord(w.A, w.V)
		}
		s := m.Snapshot()
		return m.Equal(s) && s.Equal(m) && len(m.Diffs(s, 0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// modelImage pairs an Image with the plain map it must agree with. The
// map's keys are the written words; absent words read zero.
type modelImage struct {
	img   *Image
	model map[uint64]uint64
}

// edgeAddrs returns the words and lines on both sides of the boundary
// at edge: the last word and line below it, its first word and the next.
func edgeAddrs(edge uint64) []uint64 {
	return []uint64{edge - memaddr.WordSize, edge, edge - memaddr.LineSize, edge + memaddr.WordSize}
}

// modelAddrs is the address pool of the reference-model test: words
// around page boundaries and 2 MiB directory boundaries (the last word
// of a page or directory next to the first of the following one) and
// scattered lines in every carving — per-core DRAM, per-core NVM, the
// shared NVM region and the per-core log.
func modelAddrs(rng *rand.Rand) []uint64 {
	bases := []uint64{memaddr.SharedNVMBase}
	for _, c := range []int{0, 1, memaddr.MaxCores - 1} {
		bases = append(bases, memaddr.PerCoreDRAM(c).Base, memaddr.PerCoreNVM(c).Base, memaddr.PerCoreLog(c).Base)
	}
	var addrs []uint64
	for _, b := range bases {
		for pg := uint64(1); pg <= 3; pg++ {
			addrs = append(addrs, edgeAddrs(b+pg*(1<<pageShift))...)
			addrs = append(addrs, edgeAddrs(b+pg*(1<<dirShift))...)
		}
		for i := 0; i < 4; i++ {
			addrs = append(addrs, b+uint64(rng.Intn(1<<16))*memaddr.WordSize)
		}
	}
	return addrs
}

// manyDirAddrs is an address pool spread over 192 directories, several
// times as many as any workload's image holds, one carving after
// another, so the binary search runs deep and directories are inserted
// out of address order.
func manyDirAddrs(rng *rand.Rand) []uint64 {
	var addrs []uint64
	for d := 0; d < 192; d++ {
		b := memaddr.PerCoreNVM(d%4).Base + uint64(d/4)*(1<<dirShift)
		addrs = append(addrs, b+uint64(rng.Intn(1<<dirShift/memaddr.WordSize))*memaddr.WordSize)
	}
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	return addrs
}

// Property: random sequences of WriteWord/WriteLine/CopyLine/Snapshot
// agree with a map model on ReadWord, Written, Len (zero-valued writes
// counted once), the exact written set and ascending order of ForEach,
// and DiffLimit/Diffs/Equal between every pair of images.
func TestReferenceModel(t *testing.T) { runReferenceModel(t, modelAddrs, 25, 300) }

// TestReferenceModelManyDirs is TestReferenceModel over a working set of
// many directories.
func TestReferenceModelManyDirs(t *testing.T) { runReferenceModel(t, manyDirAddrs, 4, 400) }

func runReferenceModel(t *testing.T, pool func(*rand.Rand) []uint64, seeds int64, ops int) {
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addrs := pool(rng)
		imgs := []*modelImage{{New(), map[uint64]uint64{}}}
		value := func() uint64 {
			if rng.Intn(4) == 0 {
				return 0 // zero-valued writes must still count as written
			}
			return rng.Uint64()
		}
		for op := 0; op < ops; op++ {
			m := imgs[rng.Intn(len(imgs))]
			addr := addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(memaddr.WordSize)) // may be misaligned
			switch r := rng.Intn(20); {
			case r < 12:
				v := value()
				m.img.WriteWord(addr, v)
				m.model[memaddr.WordAddr(addr)] = v
			case r < 16:
				var line [memaddr.WordsPerLine]uint64
				for i := range line {
					line[i] = value()
					m.model[memaddr.LineAddr(addr)+uint64(i)*memaddr.WordSize] = line[i]
				}
				m.img.WriteLine(addr, line)
			case r < 19:
				src := imgs[rng.Intn(len(imgs))]
				for i := uint64(0); i < memaddr.WordsPerLine; i++ {
					a := memaddr.LineAddr(addr) + i*memaddr.WordSize
					m.model[a] = src.model[a]
				}
				m.img.CopyLine(src.img, addr)
			default:
				c := &modelImage{m.img.Snapshot(), make(map[uint64]uint64, len(m.model))}
				for a, v := range m.model {
					c.model[a] = v
				}
				imgs = append(imgs, c)
			}
		}
		for k, m := range imgs {
			checkAgainstModel(t, seed, k, m, addrs)
		}
		for _, a := range imgs {
			for _, b := range imgs {
				checkDiffAgainstModel(t, seed, a, b)
			}
		}
	}
}

func checkAgainstModel(t *testing.T, seed int64, k int, m *modelImage, addrs []uint64) {
	t.Helper()
	for _, a := range addrs {
		v, ok := m.model[a]
		if got := m.img.ReadWord(a); got != v {
			t.Fatalf("seed %d image %d: ReadWord(%#x) = %#x, want %#x", seed, k, a, got, v)
		}
		if got := m.img.Written(a); got != ok {
			t.Fatalf("seed %d image %d: Written(%#x) = %v, want %v", seed, k, a, got, ok)
		}
	}
	if m.img.Len() != len(m.model) {
		t.Fatalf("seed %d image %d: Len = %d, want %d", seed, k, m.img.Len(), len(m.model))
	}
	want := make([]uint64, 0, len(m.model))
	for a := range m.model {
		want = append(want, a)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint64
	m.img.ForEach(func(a, v uint64) {
		if v != m.model[a] {
			t.Fatalf("seed %d image %d: ForEach(%#x) value %#x, want %#x", seed, k, a, v, m.model[a])
		}
		got = append(got, a)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d image %d: ForEach visited %#x, want %#x", seed, k, got, want)
	}
}

func checkDiffAgainstModel(t *testing.T, seed int64, a, b *modelImage) {
	t.Helper()
	var want []Diff
	for addr, v := range a.model {
		if b.model[addr] != v {
			want = append(want, Diff{Addr: addr, A: v, B: b.model[addr]})
		}
	}
	for addr, v := range b.model {
		if _, ok := a.model[addr]; !ok && v != 0 {
			want = append(want, Diff{Addr: addr, B: v})
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Addr < want[j].Addr })
	if got := a.img.DiffLimit(b.img, 0); got != len(want) {
		t.Fatalf("seed %d: DiffLimit(0) = %d, want %d", seed, got, len(want))
	}
	if lim := 3; len(want) >= lim {
		if got := a.img.DiffLimit(b.img, lim); got != lim {
			t.Fatalf("seed %d: DiffLimit(%d) = %d, want %d", seed, lim, got, lim)
		}
	}
	if got := a.img.Equal(b.img); got != (len(want) == 0) {
		t.Fatalf("seed %d: Equal = %v with %d model diffs", seed, got, len(want))
	}
	if got := a.img.Diffs(b.img, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: Diffs = %+v, want %+v", seed, got, want)
	}
}
