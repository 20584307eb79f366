package store

import (
	"fmt"
	"testing"

	"repro/internal/logs"
)

// BenchmarkGlobalSnapshotAfterAppend measures one append followed by a
// global snapshot refresh — the audit-after-traffic pattern — in two
// regimes: "incremental" uses the cache as shipped (the refresh folds
// in just the new record), "rebuild" clears the cache first, forcing
// the pre-incremental from-scratch cross-shard merge every time. The
// gap between the two is what the incremental merge buys on a mixed
// append/audit workload, and it widens with the base size.
func BenchmarkGlobalSnapshotAfterAppend(b *testing.B) {
	for _, base := range []int{1000, 10000} {
		for _, mode := range []string{"incremental", "rebuild"} {
			b.Run(fmt.Sprintf("%s/base%d", mode, base), func(b *testing.B) {
				s, err := Open(b.TempDir(), Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				for i := 0; i < base; i++ {
					a := logs.SndAct(fmt.Sprintf("p%d", i%8), logs.NameT("ch"), logs.NameT("v"))
					if _, err := s.Append(a); err != nil {
						b.Fatal(err)
					}
				}
				s.globalSnapshot() // warm the cache
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := logs.SndAct(fmt.Sprintf("p%d", i%8), logs.NameT("ch"), logs.NameT("v"))
					if _, err := s.Append(a); err != nil {
						b.Fatal(err)
					}
					if mode == "rebuild" {
						b.StopTimer()
						// Forget everything merged so far (field-wise: the
						// cache embeds its mutex, so no struct assignment).
						s.global.upTo = 0
						s.global.consumed = nil
						s.global.b = nil
						s.global.recs = nil
						s.global.log = nil
						b.StartTimer()
					}
					if _, l, _ := s.globalSnapshot(); l == nil {
						b.Fatal("nil snapshot")
					}
				}
			})
		}
	}
}
