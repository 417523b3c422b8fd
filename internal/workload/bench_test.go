package workload

import (
	"testing"
)

// BenchmarkGenerator: one streamed generation per op for each paper
// benchmark — build and warm the structure (200 elements), then pull
// all 300 measured operations' records through the streaming validator,
// the path every run's cores read from. records/op is the stream length.
func BenchmarkGenerator(b *testing.B) {
	for _, bm := range All {
		b.Run(bm.String(), func(b *testing.B) {
			b.ReportAllocs()
			records := 0
			for i := 0; i < b.N; i++ {
				out, err := NewStream(bm, testParams(uint64(i+1), 200, 300))
				if err != nil {
					b.Fatal(err)
				}
				rd := out.NewReader()
				for _, ok := rd.Next(); ok; _, ok = rd.Next() {
					records++
				}
				if err := out.StreamErr(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
		})
	}
}
