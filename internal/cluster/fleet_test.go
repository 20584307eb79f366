package cluster

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/logs"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestMergeTailMatchesStableSort: the newest-first merged tail returns
// exactly what the plan it replaced returned — every leader's page
// concatenated in leader order, stable-sorted by seq, trimmed to the
// newest limit — on random ascending per-leader pages, with equal
// sequence numbers across leaders and within one.
func TestMergeTailMatchesStableSort(t *testing.T) {
	rng := testutil.Rand(testutil.Seed(t, 13))
	for c := 0; c < 500; c++ {
		pages := make([][]wire.Record, 1+rng.Intn(4))
		var concat []wire.Record
		for i := range pages {
			seq := uint64(rng.Intn(4))
			for n := rng.Intn(12); n > 0; n-- {
				seq += uint64(rng.Intn(3))
				act := logs.SndAct(fmt.Sprintf("L%d", i), logs.NameT("c"), logs.NameT(fmt.Sprintf("v%d", len(pages[i]))))
				pages[i] = append(pages[i], wire.Record{Seq: seq, Act: act})
			}
			concat = append(concat, pages[i]...)
		}
		limit := 1 + rng.Intn(30)
		sort.SliceStable(concat, func(i, j int) bool { return concat[i].Seq < concat[j].Seq })
		want := concat[max(0, len(concat)-limit):]
		if got := mergeTail(pages, limit); !slices.Equal(got, want) {
			t.Fatalf("case %d, limit %d: merged tail %v, concat+stable sort %v", c, limit, got, want)
		}
	}
}
