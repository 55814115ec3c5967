// Package geo provides the geographic substrate of the simulator: cities
// with coordinates, great-circle distances, and speed-of-light-in-fiber
// propagation delays. Latency floors in every simulated path come from
// here, which is what makes "tromboning" through a distant transit hub (the
// phenomenon behind the paper's IXP case study) physically meaningful.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// City is a named location.
type City struct {
	Name    string
	Country string
	Lat     float64 // degrees
	Lon     float64 // degrees
	// UTCOffset shifts the diurnal traffic curve (hours).
	UTCOffset float64
}

// Registry maps city names to coordinates. The zero value is unusable; use
// NewRegistry or DefaultRegistry.
type Registry struct {
	cities map[string]City
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cities: make(map[string]City)}
}

// Add registers a city, replacing any previous entry with the same name.
func (r *Registry) Add(c City) { r.cities[c.Name] = c }

// Get returns the named city.
func (r *Registry) Get(name string) (City, error) {
	c, ok := r.cities[name]
	if !ok {
		return City{}, fmt.Errorf("geo: unknown city %q", name)
	}
	return c, nil
}

// MustGet is Get that panics on unknown cities; for static scenario code.
func (r *Registry) MustGet(name string) City {
	c, err := r.Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns all registered city names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.cities))
	for n := range r.cities {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Cities returns every registered city sorted by name: the registry's part
// of a topology snapshot (topo.Export).
func (r *Registry) Cities() []City {
	out := make([]City, 0, len(r.cities))
	for _, n := range r.Names() {
		out = append(out, r.cities[n])
	}
	return out
}

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two cities using the
// haversine formula.
func DistanceKm(a, b City) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// fiberKmPerMs is how far light travels in fibre per millisecond
// (c ≈ 299,792 km/s; refractive index ≈ 1.468 ⇒ ≈ 204 km/ms). Real paths
// are not great circles, so PropagationMs applies a route-inefficiency
// factor of 1.3 on top.
const fiberKmPerMs = 204.19

// routeInefficiency inflates great-circle distance to account for real
// fibre routing detours.
const routeInefficiency = 1.3

// PropagationMs returns the one-way propagation delay between two cities.
func PropagationMs(a, b City) float64 {
	return DistanceKm(a, b) * routeInefficiency / fiberKmPerMs
}

// SyntheticRegistry returns n deterministic synthetic cities ("City-000"…)
// spread over the globe on a Fibonacci sphere, so generated internets can
// be arbitrarily larger than the default city set while every pairwise
// distance — and therefore every propagation delay — is a pure function of
// n and the index. No randomness: equal n gives equal registries, which the
// content-addressed gen/<cfghash> world ids depend on. Latitudes are damped
// to ±60° so no city sits on a pole, and UTC offsets follow longitude.
func SyntheticRegistry(n int) *Registry {
	r := NewRegistry()
	// Golden angle in degrees; successive points are maximally spread.
	const goldenAngle = 137.50776405003785
	for i := 0; i < n; i++ {
		frac := (float64(i) + 0.5) / float64(n)
		lat := (math.Asin(2*frac-1) * 180 / math.Pi) * (60.0 / 90.0)
		lon := math.Mod(float64(i)*goldenAngle, 360)
		if lon > 180 {
			lon -= 360
		}
		r.Add(City{
			Name:      fmt.Sprintf("City-%03d", i),
			Country:   "XX",
			Lat:       lat,
			Lon:       lon,
			UTCOffset: math.Round(lon / 15),
		})
	}
	return r
}

// DefaultRegistry returns the city set used by the built-in scenarios:
// the South African metros from Table 1, the European transit hubs that
// South African traffic historically tromboned through, and a few extras
// for synthetic topologies.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, c := range []City{
		// South Africa (Table 1 locations).
		{Name: "Johannesburg", Country: "ZA", Lat: -26.2041, Lon: 28.0473, UTCOffset: 2},
		{Name: "Cape Town", Country: "ZA", Lat: -33.9249, Lon: 18.4241, UTCOffset: 2},
		{Name: "Durban", Country: "ZA", Lat: -29.8587, Lon: 31.0218, UTCOffset: 2},
		{Name: "East London", Country: "ZA", Lat: -33.0292, Lon: 27.8546, UTCOffset: 2},
		{Name: "Polokwane", Country: "ZA", Lat: -23.9045, Lon: 29.4688, UTCOffset: 2},
		{Name: "Edenvale", Country: "ZA", Lat: -26.1407, Lon: 28.1551, UTCOffset: 2},
		{Name: "eMuziwezinto", Country: "ZA", Lat: -30.3650, Lon: 30.6650, UTCOffset: 2},
		{Name: "Pretoria", Country: "ZA", Lat: -25.7479, Lon: 28.2293, UTCOffset: 2},
		{Name: "Bloemfontein", Country: "ZA", Lat: -29.0852, Lon: 26.1596, UTCOffset: 2},
		// European transit/trombone hubs.
		{Name: "London", Country: "GB", Lat: 51.5074, Lon: -0.1278, UTCOffset: 0},
		{Name: "Amsterdam", Country: "NL", Lat: 52.3676, Lon: 4.9041, UTCOffset: 1},
		{Name: "Frankfurt", Country: "DE", Lat: 50.1109, Lon: 8.6821, UTCOffset: 1},
		{Name: "Paris", Country: "FR", Lat: 48.8566, Lon: 2.3522, UTCOffset: 1},
		{Name: "Marseille", Country: "FR", Lat: 43.2965, Lon: 5.3698, UTCOffset: 1},
		{Name: "Lisbon", Country: "PT", Lat: 38.7223, Lon: -9.1393, UTCOffset: 0},
		// Other anchors for synthetic topologies.
		{Name: "New York", Country: "US", Lat: 40.7128, Lon: -74.0060, UTCOffset: -5},
		{Name: "Singapore", Country: "SG", Lat: 1.3521, Lon: 103.8198, UTCOffset: 8},
		{Name: "Nairobi", Country: "KE", Lat: -1.2921, Lon: 36.8219, UTCOffset: 3},
		{Name: "Lagos", Country: "NG", Lat: 6.5244, Lon: 3.3792, UTCOffset: 1},
	} {
		r.Add(c)
	}
	return r
}
