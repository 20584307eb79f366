package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestClaimGeneratorVerdicts audits generated claims against a small
// store holding the generated relay log: genuine claims must audit
// correct and forged ones incorrect, for both kinds of forgery.
func TestClaimGeneratorVerdicts(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		lg := genRelayLog(seed, 16, 40, 2, 8, 2000)
		if len(lg.Acts) != 2000 {
			t.Fatalf("seed %d: log has %d actions, want 2000", seed, len(lg.Acts))
		}
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendBatch(lg.Acts); err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for i, c := range genClaims(seed, lg, 300) {
			kinds[c.Forgery]++
			got := st.AuditTerm(logs.NameT(c.Value), c.Prov) == nil
			if got != c.Genuine {
				t.Errorf("seed %d claim %d (chain %d, forgery %q): audit %v, want %v", seed, i, c.Chain, c.Forgery, got, c.Genuine)
			}
		}
		if kinds["swap"] == 0 || kinds["flip"] == 0 || kinds[""] < 200 {
			t.Errorf("seed %d: claim mix %v, want mostly genuine with both forgeries", seed, kinds)
		}
		st.Close()
	}
}

// TestRelayLogPlacesChains checks every chain's actions appear in order
// and Oldest names its first action.
func TestRelayLogPlacesChains(t *testing.T) {
	lg := genRelayLog(9, 32, 50, 2, 8, 5000)
	for ci, c := range lg.Chains {
		var pos []int
		for i, a := range lg.Acts {
			if a.B.Name == c.Value {
				pos = append(pos, i)
			}
		}
		if want := 2 * (len(c.Principals) - 1); len(pos) != want {
			t.Fatalf("chain %d: %d actions, want %d", ci, len(pos), want)
		}
		if pos[0] != c.Oldest {
			t.Errorf("chain %d: oldest at %d, recorded %d", ci, pos[0], c.Oldest)
		}
		if lg.Acts[pos[0]].Principal != c.Principals[0] || lg.Acts[pos[len(pos)-1]].Principal != c.Principals[len(c.Principals)-1] {
			t.Errorf("chain %d: relay order broken", ci)
		}
	}
}

// TestGeneratorsDeterministic checks the same seed gives identical
// inputs and another seed different ones.
func TestGeneratorsDeterministic(t *testing.T) {
	a, b := genRelayLog(5, 64, 100, 2, 8, 3000), genRelayLog(5, 64, 100, 2, 8, 3000)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(genClaims(5, a, 50), genClaims(5, b, 50)) {
		t.Error("relay log or claims differ for one seed")
	}
	if reflect.DeepEqual(a.Acts, genRelayLog(6, 64, 100, 2, 8, 3000).Acts) {
		t.Error("relay logs equal across seeds")
	}
	if !reflect.DeepEqual(durableBatches(5, 1, 20, 64, 1024), durableBatches(5, 1, 20, 64, 1024)) {
		t.Error("durable batches differ for one seed")
	}
	if reflect.DeepEqual(durableBatches(5, 0, 20, 64, 1024), durableBatches(5, 1, 20, 64, 1024)) {
		t.Error("producers share a batch stream")
	}
	if !reflect.DeepEqual(fleetShapes(5, 20, 32, 256), fleetShapes(5, 20, 32, 256)) {
		t.Error("fleet shapes differ for one seed")
	}
	s := fleetShapes(5, 1, 32, 256)[0]
	if x, y := s.batch(123, 0), s.batch(123, 0); !reflect.DeepEqual(x, y) {
		t.Error("fleet batch differs for one seed and stamp")
	}
}

// TestDurableBatchFanOut checks the Zipf skew gives about 39 distinct
// principals per 64-action batch over 1024 principals.
func TestDurableBatchFanOut(t *testing.T) {
	var sum float64
	bs := durableBatches(1, 0, 500, 64, 1024)
	for _, b := range bs {
		sum += float64(distinctPrincipals(b))
	}
	if mean := sum / float64(len(bs)); mean < 35 || mean > 43 {
		t.Errorf("mean distinct principals per batch %.1f, want about 39", mean)
	}
}

func TestStampRoundTrip(t *testing.T) {
	v := stampValue(1234567890123, 42, 7)
	if got, b, j, ok := parseStamp(v); !ok || got != 1234567890123 || b != 42 || j != 7 {
		t.Errorf("parseStamp(%q) = %d, %d, %d, %v", v, got, b, j, ok)
	}
	for _, v := range []string{"h0000001", "s12", "sabcdefghijklm-000001-01", "s0000000000001-00000x-01"} {
		if _, _, _, ok := parseStamp(v); ok {
			t.Errorf("parseStamp(%q) found a stamp", v)
		}
	}
}

// TestCheckPage checks the merged-page invariant: (seq, leader)
// strictly ascending, filtered, bounded.
func TestCheckPage(t *testing.T) {
	owner := func(p string) int {
		if p == "b" {
			return 1
		}
		return 0
	}
	rec := func(seq uint64, p, ch string) wire.Record {
		return wire.Record{Seq: seq, Act: logs.SndAct(p, logs.NameT(ch), logs.NameT("v"))}
	}
	good := []wire.Record{rec(1, "a", "c0"), rec(1, "b", "c0"), rec(2, "a", "c0")}
	if !checkPage(good, "c0", owner) {
		t.Error("valid page refused")
	}
	for name, bad := range map[string][]wire.Record{
		"duplicate":  {rec(1, "a", "c0"), rec(1, "a", "c0")},
		"descending": {rec(2, "a", "c0"), rec(1, "b", "c0")},
		"leader":     {rec(1, "b", "c0"), rec(1, "a", "c0")},
		"filter":     {rec(1, "a", "c1")},
	} {
		if checkPage(bad, "c0", owner) {
			t.Errorf("%s page accepted", name)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations checks BENCHMARK.json at the
// repository root names exactly the workloads and metrics this
// benchmark runs and prints.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		if !manualOnly[n] {
			want = append(want, n)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nbenchmark declares %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nbenchmark declares %v", bj.PerLayer, perLayer)
	}
}
