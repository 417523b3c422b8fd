package txcache

import (
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/sim"
)

// BenchmarkTCWriteDrain: one four-store transaction per op through a
// Table 2 transaction cache — buffer the writes, commit, then drain every
// entry to a real NVM controller and retire its acknowledgment, applying
// each word to a durable image.
func BenchmarkTCWriteDrain(b *testing.B) {
	k := sim.NewKernel()
	nvm := memctrl.New(k, memctrl.Config{Name: "NVM", ReadHit: 30, ReadMiss: 130, WriteHit: 60, WriteMiss: 152})
	img := memimage.New()
	tc := New(k.NewCtx(), Config{}, nvm, func(addr, value uint64) { img.WriteWord(addr, value) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := uint64(i + 1)
		for j := uint64(0); j < 4; j++ {
			addr := memaddr.NVMBase + (uint64(i)%64*4+j)*memaddr.LineSize
			if tc.Write(tx, addr, tx) != Accepted {
				b.Fatal("write rejected by a drained transaction cache")
			}
		}
		tc.Commit(tx)
		for !tc.Drained() {
			k.Step()
		}
	}
}
