package memimage

import (
	"math/rand"
	"testing"

	"pmemaccel/internal/memaddr"
)

// benchWords sizes the component benchmarks' images: 64 Ki words
// (512 KiB, 128 pages) of one core's NVM carving, about the base image a
// mid-sized workload builds.
const benchWords = 1 << 16

var benchBase = memaddr.PerCoreNVM(0).Base

// benchSink keeps the compiler from discarding measured reads.
var benchSink uint64

func filledImage() *Image {
	m := New()
	for i := uint64(0); i < benchWords; i++ {
		m.WriteWord(benchBase+i*memaddr.WordSize, i)
	}
	return m
}

// BenchmarkImageWriteWordSeq: one word store per op, walking the image
// sequentially (the recorder's and the seeding loops' pattern).
func BenchmarkImageWriteWordSeq(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.WriteWord(benchBase+uint64(i%benchWords)*memaddr.WordSize, uint64(i))
	}
}

// BenchmarkImageReadWordSeq: one word load per op, sequential.
func BenchmarkImageReadWordSeq(b *testing.B) {
	m := filledImage()
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		s += m.ReadWord(benchBase + uint64(i%benchWords)*memaddr.WordSize)
	}
	benchSink = s
}

// BenchmarkImageReadWordRandom: one word load per op at a random word,
// so nearly every access misses the last-page cache.
func BenchmarkImageReadWordRandom(b *testing.B) {
	m := filledImage()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, benchWords)
	for i := range addrs {
		addrs[i] = benchBase + uint64(rng.Intn(benchWords))*memaddr.WordSize
	}
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		s += m.ReadWord(addrs[i%benchWords])
	}
	benchSink = s
}

// BenchmarkImageReadWordRandomWide: one word load per op at a random
// written word of a 32 MiB image: every eighth page of 128 directories
// spread over four per-core carvings. Lookups miss the last-page cache
// and search all 128 directories (the random node reads of a
// large-footprint run, made sparser than any workload's).
func BenchmarkImageReadWordRandomWide(b *testing.B) {
	const dirs, stride = 128, 8
	m := New()
	var written []uint64
	for d := uint64(0); d < dirs; d++ {
		base := memaddr.PerCoreNVM(int(d%4)).Base + d/4*(1<<21)
		for pg := uint64(0); pg < 512; pg += stride {
			for w := uint64(0); w < 512; w += 64 {
				a := base + pg<<12 + w*memaddr.WordSize
				m.WriteWord(a, a)
				written = append(written, a)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, benchWords)
	for i := range addrs {
		addrs[i] = written[rng.Intn(len(written))]
	}
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		s += m.ReadWord(addrs[i%benchWords])
	}
	benchSink = s
}

// BenchmarkImageSnapshot: one deep copy of a benchWords image per op.
func BenchmarkImageSnapshot(b *testing.B) {
	m := filledImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += uint64(m.Snapshot().Len())
	}
}

// BenchmarkImageForEach: one full ascending walk of a benchWords image
// per op.
func BenchmarkImageForEach(b *testing.B) {
	m := filledImage()
	b.ResetTimer()
	var s uint64
	for i := 0; i < b.N; i++ {
		m.ForEach(func(_, v uint64) { s += v })
	}
	benchSink = s
}
