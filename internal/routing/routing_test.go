package routing

import (
	"fmt"
	"math/rand"
	"testing"
)

// LinearLookup is the reference O(n) scan with the same deterministic
// winner rule (closest, then smallest ID): the equivalence baseline for
// Index.Lookup and the before-side of the routing microbenchmark.
func LinearLookup(towers []Tower, lat, lon float64) (best Tower, distKm float64, ok bool) {
	lon = normLon(lon)
	for _, t := range towers {
		d := DistanceKm(t.Lat, normLon(t.Lon), lat, lon)
		if d > t.RadiusKm {
			continue
		}
		if !ok || d < distKm || (d == distKm && t.ID < best.ID) {
			best, distKm, ok = t, d, true
		}
	}
	return best, distKm, ok
}

// randomFleet builds n towers scattered over a Pakistan-sized region
// with mixed radii, including exact-duplicate sites to exercise ties.
func randomFleet(n int, rng *rand.Rand) []Tower {
	towers := make([]Tower, 0, n)
	for i := 0; i < n; i++ {
		t := Tower{
			ID:       fmt.Sprintf("tx-%04d", i),
			Lat:      23 + rng.Float64()*14, // 23..37°N
			Lon:      61 + rng.Float64()*16, // 61..77°E
			RadiusKm: 10 + rng.Float64()*90,
		}
		towers = append(towers, t)
		// Every 16th tower gets a co-sited twin with a higher ID: same
		// center, same radius — an exact distance tie on every query.
		if i%16 == 0 {
			twin := t
			twin.ID = fmt.Sprintf("tx-%04d-b", i)
			towers = append(towers, twin)
		}
	}
	return towers
}

// TestIndexMatchesLinearReference pins the grid index to the reference
// scan: same winner, same distance, same coverage verdict, for random
// fleets and query points (including points far outside coverage).
func TestIndexMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 7, 64, 400} {
		towers := randomFleet(n, rng)
		idx := Build(towers)
		for q := 0; q < 2000; q++ {
			lat := 20 + rng.Float64()*20
			lon := 58 + rng.Float64()*22
			gt, gd, gok := idx.Lookup(lat, lon)
			lt, ld, lok := LinearLookup(towers, lat, lon)
			if gok != lok || gt.ID != lt.ID || gd != ld {
				t.Fatalf("n=%d q=(%.4f,%.4f): index (%q, %.6f, %v) != linear (%q, %.6f, %v)",
					n, lat, lon, gt.ID, gd, gok, lt.ID, ld, lok)
			}
		}
	}
}

// TestLookupTieBreak is the deterministic-winner table: closest tower
// first, then smaller ID on exact distance ties — independent of
// registration order.
func TestLookupTieBreak(t *testing.T) {
	near := Tower{ID: "z-near", Lat: 24.90, Lon: 67.00, RadiusKm: 40}
	far := Tower{ID: "a-far", Lat: 24.50, Lon: 67.00, RadiusKm: 60}
	twinA := Tower{ID: "twin-a", Lat: 24.90, Lon: 67.00, RadiusKm: 40}
	cases := []struct {
		name   string
		towers []Tower
		lat    float64
		lon    float64
		want   string
		wantOK bool
	}{
		{"closest wins over id", []Tower{far, near}, 24.88, 67.00, "z-near", true},
		{"closest wins, reversed order", []Tower{near, far}, 24.88, 67.00, "z-near", true},
		{"exact tie breaks on id", []Tower{near, twinA}, 24.88, 67.00, "twin-a", true},
		{"exact tie, reversed order", []Tower{twinA, near}, 24.88, 67.00, "twin-a", true},
		{"only one covers", []Tower{near, far}, 24.45, 67.00, "a-far", true},
		{"nobody covers", []Tower{near, far}, 30.00, 70.00, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, ok := Build(tc.towers).Lookup(tc.lat, tc.lon)
			if ok != tc.wantOK || (ok && got.ID != tc.want) {
				t.Errorf("Lookup = (%q, %v), want (%q, %v)", got.ID, ok, tc.want, tc.wantOK)
			}
			lgot, _, lok := LinearLookup(tc.towers, tc.lat, tc.lon)
			if lok != ok || (ok && lgot.ID != got.ID) {
				t.Errorf("linear reference disagrees: (%q, %v) vs (%q, %v)", lgot.ID, lok, got.ID, ok)
			}
		})
	}
}

// TestLookupPermutationInvariant proves registration order cannot change
// the winner: every permutation of an overlapping fleet routes the same.
func TestLookupPermutationInvariant(t *testing.T) {
	towers := []Tower{
		{ID: "c", Lat: 24.86, Lon: 67.00, RadiusKm: 50},
		{ID: "a", Lat: 24.95, Lon: 67.05, RadiusKm: 50},
		{ID: "b", Lat: 24.80, Lon: 66.95, RadiusKm: 50},
	}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	queries := [][2]float64{{24.86, 67.00}, {24.90, 67.02}, {24.82, 66.97}, {25.0, 67.1}}
	for _, q := range queries {
		want, _, wantOK := Build(towers).Lookup(q[0], q[1])
		for _, p := range perms {
			shuffled := []Tower{towers[p[0]], towers[p[1]], towers[p[2]]}
			got, _, ok := Build(shuffled).Lookup(q[0], q[1])
			if ok != wantOK || (ok && got.ID != want.ID) {
				t.Errorf("query %v perm %v: got (%q, %v), want (%q, %v)",
					q, p, got.ID, ok, want.ID, wantOK)
			}
		}
	}
}

// TestLookupLonWrapNormalization: towers registered with out-of-range
// longitudes still resolve (the index normalizes to [-180, 180)).
func TestLookupLonWrapNormalization(t *testing.T) {
	towers := []Tower{{ID: "x", Lat: 10, Lon: 67.0 + 360, RadiusKm: 40}}
	if _, _, ok := Build(towers).Lookup(10, 67.0); !ok {
		t.Error("normalized-longitude tower not found")
	}
	if _, _, ok := Build(towers).Lookup(10, 67.0-360); !ok {
		t.Error("normalized-longitude query not found")
	}
}

// benchFleet is the 1k-tower fleet the acceptance microbenchmark runs
// against, with query points drawn from covered areas.
func benchFleet() ([]Tower, [][2]float64) {
	rng := rand.New(rand.NewSource(1))
	towers := randomFleet(1000, rng)
	queries := make([][2]float64, 1024)
	for i := range queries {
		t := towers[rng.Intn(len(towers))]
		queries[i] = [2]float64{t.Lat + (rng.Float64()-0.5)*0.3, t.Lon + (rng.Float64()-0.5)*0.3}
	}
	return towers, queries
}

func BenchmarkIndexLookup1k(b *testing.B) {
	towers, queries := benchFleet()
	idx := Build(towers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i&1023]
		idx.Lookup(q[0], q[1])
	}
}

func BenchmarkLinearLookup1k(b *testing.B) {
	towers, queries := benchFleet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i&1023]
		LinearLookup(towers, q[0], q[1])
	}
}
