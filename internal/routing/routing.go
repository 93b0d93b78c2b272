// Package routing maps a requesting user's location onto the FM
// transmitter that will carry their page. The SONIC server (§3.1)
// "informs the respective transmitters"; with a national fleet that
// lookup sits on the admission hot path for every SMS request, so a
// linear scan over the transmitter list — fine for the paper's handful
// of stations — collapses at 10³ towers × 10⁵–10⁶ requesters.
//
// Index is a uniform lat/lon grid: each tower lives in the cell holding
// its center, and the cell edge is at least the largest coverage radius
// in both axes, so every tower that can cover a query point sits in the
// point's 3×3 cell neighborhood. Lookup therefore inspects O(1) cells
// and the handful of towers in them, independent of fleet size.
//
// Winner selection is deterministic: among covering towers the closest
// wins, and an exact distance tie breaks on the smaller ID. The result
// never depends on registration order — a property the server's old
// first-covering-tower scan did not have.
//
// The index is immutable after Build; the server swaps whole snapshots
// (copy-on-write) when the fleet changes, which keeps Lookup lock-free.
//
// Longitudes are normalized to [-180, 180). Cells do not wrap across
// the antimeridian and the grid degenerates near the poles (|lat| ≳
// 87°); SONIC fleets are regional, and the conservative cell sizing
// keeps correctness everywhere the cosine clamp holds.
package routing

import "math"

// Tower is one indexed transmitter site.
type Tower struct {
	ID       string
	Lat, Lon float64
	RadiusKm float64
}

// kmPerDegLat is the great-circle length of one degree of latitude (and
// of longitude at the equator).
const kmPerDegLat = 111.194926645

// DistanceKm returns the haversine great-circle distance between two
// points.
func DistanceKm(lat1, lon1, lat2, lon2 float64) float64 {
	const r = 6371.0
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * r * math.Asin(math.Min(1, math.Sqrt(a)))
}

// Index is an immutable spatial index over a tower fleet.
type Index struct {
	towers  []Tower
	cellLat float64 // degrees of latitude per cell
	cellLon float64 // degrees of longitude per cell
	cells   map[cellKey][]int32
}

type cellKey struct{ i, j int32 }

// Build constructs the index. The tower slice is copied; the input is
// not retained.
func Build(towers []Tower) *Index {
	idx := &Index{
		towers: append([]Tower(nil), towers...),
		cells:  make(map[cellKey][]int32, len(towers)),
	}
	maxR := 1.0 // floor so zero-radius fleets still get finite cells
	cosMin := 1.0
	for i := range idx.towers {
		t := &idx.towers[i]
		t.Lon = normLon(t.Lon)
		if t.RadiusKm > maxR {
			maxR = t.RadiusKm
		}
	}
	for _, t := range idx.towers {
		// The latitude band a tower's coverage can touch: its own
		// latitude extended by the radius. The longitude cell must span
		// the radius at the narrowest (highest-|lat|) point of any
		// coverage disc, so take the minimum cosine over the fleet.
		reach := math.Abs(t.Lat) + t.RadiusKm/kmPerDegLat
		if c := math.Cos(reach * math.Pi / 180); c < cosMin {
			cosMin = c
		}
	}
	if cosMin < 0.05 {
		cosMin = 0.05 // clamp: keeps cells finite up to ~87° latitude
	}
	idx.cellLat = maxR / kmPerDegLat
	// The latitude bound is exact (haversine distance dominates the
	// meridian component); the longitude bound leans on a small-angle
	// approximation, so inflate it 1% to keep the 3×3 neighborhood
	// guarantee airtight for continental-scale radii.
	idx.cellLon = maxR * 1.01 / (kmPerDegLat * cosMin)
	for i, t := range idx.towers {
		k := idx.cellOf(t.Lat, t.Lon)
		idx.cells[k] = append(idx.cells[k], int32(i))
	}
	return idx
}

// normLon wraps a longitude into [-180, 180).
func normLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

func (x *Index) cellOf(lat, lon float64) cellKey {
	return cellKey{
		i: int32(math.Floor(lat / x.cellLat)),
		j: int32(math.Floor(lon / x.cellLon)),
	}
}

// Len returns the number of indexed towers.
func (x *Index) Len() int { return len(x.towers) }

// Lookup returns the covering tower for a location: the closest one,
// ties broken by smaller ID. ok is false when no tower covers the
// point. The result is identical to LinearLookup over the same fleet.
func (x *Index) Lookup(lat, lon float64) (best Tower, distKm float64, ok bool) {
	if len(x.towers) == 0 {
		return Tower{}, 0, false
	}
	lon = normLon(lon)
	c := x.cellOf(lat, lon)
	for di := int32(-1); di <= 1; di++ {
		for dj := int32(-1); dj <= 1; dj++ {
			for _, ti := range x.cells[cellKey{c.i + di, c.j + dj}] {
				t := x.towers[ti]
				d := DistanceKm(t.Lat, t.Lon, lat, lon)
				if d > t.RadiusKm {
					continue
				}
				if !ok || d < distKm || (d == distKm && t.ID < best.ID) {
					best, distKm, ok = t, d, true
				}
			}
		}
	}
	return best, distKm, ok
}

// LinearLookup is the reference O(n) scan with the same deterministic
// winner rule (closest, then smallest ID). It exists as the equivalence
// baseline for Index.Lookup and as the before-side of the routing
// microbenchmark; production code routes through an Index.
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
