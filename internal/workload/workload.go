// Package workload generates the query workloads of the QUASII paper
// (Section 6.1): clustered range queries mimicking exploratory analysis of
// brain-model regions, and uniform range queries for the non-skewed
// experiments. Query volume is expressed as a selectivity — a fraction of the
// universe volume — exactly as in the paper (e.g. 0.01 % = 1e-4).
//
// Beyond the paper, the package provides the access patterns of the
// adaptive-indexing literature: Sequential (an adjacent sweep, cracking's
// worst case — no refinement reuse) and Zipf (hotspot skew, its best case).
// All generators are deterministic in their seed, which the oracle-validated
// serving tests (internal/bench's load generator) rely on to rebuild the
// exact server workload client-side.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// SideForSelectivity returns the side length of a cubic query whose volume is
// frac (e.g. 1e-4 for 0.01 %) of the universe volume.
func SideForSelectivity(universe geom.Box, frac float64) float64 {
	return math.Cbrt(universe.Volume() * frac)
}

// Clustered generates numClusters clusters of perCluster cubic queries each,
// concatenated cluster by cluster (the paper executes all queries of one
// cluster before moving to the next). Cluster centers are uniform in the
// universe; query centers follow a Gaussian around their cluster center with
// standard deviation sigma (in universe units). Queries are clamped into the
// universe. The paper uses 5 clusters × 100 queries with a fixed query volume
// of 0.01 % of the universe.
func Clustered(universe geom.Box, numClusters, perCluster int, selectivity, sigma float64, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	side := SideForSelectivity(universe, selectivity)
	queries := make([]geom.Box, 0, numClusters*perCluster)
	for c := 0; c < numClusters; c++ {
		var cc geom.Point
		for d := 0; d < geom.Dims; d++ {
			span := universe.Max[d] - universe.Min[d]
			cc[d] = universe.Min[d] + rng.Float64()*span
		}
		for i := 0; i < perCluster; i++ {
			var center geom.Point
			for d := 0; d < geom.Dims; d++ {
				center[d] = cc[d] + rng.NormFloat64()*sigma
			}
			queries = append(queries, clampedCube(universe, center, side))
		}
	}
	return queries
}

// ClusteredOn is like Clustered but places cluster centers on the given data
// so clustered workloads hit populated regions of skewed datasets (the paper
// validates model regions, which by construction contain data).
func ClusteredOn(universe geom.Box, data []geom.Object, numClusters, perCluster int, selectivity, sigma float64, seed int64) []geom.Box {
	if len(data) == 0 {
		return Clustered(universe, numClusters, perCluster, selectivity, sigma, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	side := SideForSelectivity(universe, selectivity)
	queries := make([]geom.Box, 0, numClusters*perCluster)
	for c := 0; c < numClusters; c++ {
		cc := data[rng.Intn(len(data))].Center()
		for i := 0; i < perCluster; i++ {
			var center geom.Point
			for d := 0; d < geom.Dims; d++ {
				center[d] = cc[d] + rng.NormFloat64()*sigma
			}
			queries = append(queries, clampedCube(universe, center, side))
		}
	}
	return queries
}

// Uniform generates n cubic queries with the given selectivity, centers
// uniform in the universe (paper Sec. 6.6: up to 10 000 uniform queries).
func Uniform(universe geom.Box, n int, selectivity float64, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	side := SideForSelectivity(universe, selectivity)
	queries := make([]geom.Box, n)
	for i := range queries {
		var center geom.Point
		for d := 0; d < geom.Dims; d++ {
			span := universe.Max[d] - universe.Min[d]
			center[d] = universe.Min[d] + rng.Float64()*span
		}
		queries[i] = clampedCube(universe, center, side)
	}
	return queries
}

// clampedCube builds the cube of the given side around center, shifted to lie
// inside the universe (so every query has the intended volume).
func clampedCube(universe geom.Box, center geom.Point, side float64) geom.Box {
	var b geom.Box
	for d := 0; d < geom.Dims; d++ {
		span := universe.Max[d] - universe.Min[d]
		s := side
		if s > span {
			s = span
		}
		lo := center[d] - s/2
		if lo < universe.Min[d] {
			lo = universe.Min[d]
		}
		if lo+s > universe.Max[d] {
			lo = universe.Max[d] - s
		}
		b.Min[d] = lo
		b.Max[d] = lo + s
	}
	return b
}

// Sequential generates n queries of the given selectivity sweeping across
// the universe along dimension dim (adjacent, non-overlapping steps that wrap
// around). This is the "sequential" pattern of the adaptive indexing
// literature — the worst case for cracking-style indexes because no query
// reuses earlier refinement.
func Sequential(universe geom.Box, n int, selectivity float64, dim int) []geom.Box {
	if dim < 0 || dim >= geom.Dims {
		dim = 0
	}
	side := SideForSelectivity(universe, selectivity)
	queries := make([]geom.Box, n)
	span := universe.Max[dim] - universe.Min[dim]
	var center geom.Point
	for d := 0; d < geom.Dims; d++ {
		center[d] = (universe.Min[d] + universe.Max[d]) / 2
	}
	for i := range queries {
		c := center
		offset := universe.Min[dim] + side/2 + float64(i)*side
		// Wrap around the universe, shifting laterally on each pass so
		// successive sweeps do not retrace the exact same region.
		pass := 0
		for offset > universe.Max[dim]-side/2 && span > side {
			offset -= span - side
			pass++
		}
		c[dim] = offset
		lateral := (dim + 1) % geom.Dims
		c[lateral] += float64(pass) * side
		queries[i] = clampedCube(universe, c, side)
	}
	return queries
}

// Zipf generates n queries whose centers follow a Zipfian distribution over
// a grid of hotspot cells: cell ranks are drawn with P(k) ∝ 1/k^skew, so a
// few regions absorb most queries — a heavily skewed exploratory pattern.
func Zipf(universe geom.Box, n int, selectivity, skew float64, seed int64) []geom.Box {
	if skew <= 0 {
		skew = 1
	}
	rng := rand.New(rand.NewSource(seed))
	side := SideForSelectivity(universe, selectivity)
	const cells = 64 // hotspot cells per dimension basis (4x4x4)
	// Pre-compute hotspot centers in a shuffled order so rank does not
	// correlate with position.
	centers := make([]geom.Point, cells)
	for i := range centers {
		for d := 0; d < geom.Dims; d++ {
			span := universe.Max[d] - universe.Min[d]
			centers[i][d] = universe.Min[d] + rng.Float64()*span
		}
	}
	zipf := rand.NewZipf(rng, skew+1, 1, cells-1)
	queries := make([]geom.Box, n)
	for i := range queries {
		hot := centers[zipf.Uint64()]
		var c geom.Point
		for d := 0; d < geom.Dims; d++ {
			c[d] = hot[d] + rng.NormFloat64()*side
		}
		queries[i] = clampedCube(universe, c, side)
	}
	return queries
}

// namedClusterSigma is the Gaussian spread, in universe units, of the
// clustered pattern Named generates — the paper figures' cluster spread.
const namedClusterSigma = 200

// Named generates n queries of the named pattern — uniform (also ""),
// clustered, zipf or sequential — with the paper's parameterization: five
// clusters whose centers sit on data, as the paper's workload does, and a
// zipf skew of 1.2 when skew ≤ 0. It is the one dispatcher behind
// cmd/quasii-loadgen's -workload flag.
func Named(name string, universe geom.Box, data []geom.Object, n int, sel, skew float64, seed int64) ([]geom.Box, error) {
	if skew <= 0 {
		skew = 1.2
	}
	switch name {
	case "", "uniform":
		return Uniform(universe, n, sel, seed), nil
	case "clustered":
		// Round perCluster up and truncate so the caller gets exactly n
		// queries.
		perCluster := (n + 4) / 5
		if perCluster < 1 {
			perCluster = 1
		}
		qs := ClusteredOn(universe, data, 5, perCluster, sel, namedClusterSigma, seed)
		if len(qs) > n {
			qs = qs[:n]
		}
		return qs, nil
	case "zipf":
		return Zipf(universe, n, sel, skew, seed), nil
	case "sequential":
		return Sequential(universe, n, sel, 0), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want uniform, clustered, zipf or sequential)", name)
}
