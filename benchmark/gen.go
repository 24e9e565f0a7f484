package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// inputs is everything a workload feeds the system, derived from the seed
// alone: the same seed gives the same dataset, the same query pool, the same
// write stream and therefore the same expected answers. The system under
// test never sees the seed of the query pool or the write stream — only the
// boxes and objects themselves.
type inputs struct {
	spec workloadSpec
	seed int64

	pool []geom.Box // queries, in stream order; timed phases cycle through it
	want []answer   // expected answer per pool query, over the base data

	writeBase int32 // first ID the benchmark's writer uses; base data is below it
}

// generate builds the base dataset. Each round calls it again inside the
// set-up clock, since generating or loading the data is part of what a user
// waits for; quasii-serve runs the same generators from -dataset/-n/-seed.
func (in *inputs) generate() []geom.Object { return dataset.Uniform(in.spec.N, in.seed) }

// newInputs prepares pool and expected answers. None of this is on any
// clock the benchmark reports: it is the referee's homework, not the
// system's work.
func newInputs(spec workloadSpec, seed int64) (*inputs, error) {
	in := &inputs{spec: spec, seed: seed, writeBase: int32(spec.N)}
	data := in.generate()
	var err error
	if in.pool, err = queryPool(spec, seed); err != nil {
		return nil, err
	}

	o := newOracle(data)
	in.want = make([]answer, len(in.pool))
	for i, q := range in.pool {
		in.want[i] = o.answer(q)
	}
	if err := o.crossCheck(in.pool, in.want, crossChecks); err != nil {
		return nil, err
	}
	return in, nil
}

// queryPool generates spec's query stream: whole batches only, so that a
// batch never wraps around the pool's end. Every pattern draws its boxes
// from the universe alone, never from the data, so query cost depends on
// the seed only through which equally dense region a box lands in.
func queryPool(spec workloadSpec, seed int64) ([]geom.Box, error) {
	u := dataset.Universe()
	qseed := seed + 100
	var pool []geom.Box
	switch spec.Queries {
	case "clustered":
		pool = clusteredPool(spec, qseed)
	case "uniform":
		pool = workload.Uniform(u, spec.Pool, spec.Selectivity, qseed)
	case "zipf":
		pool = workload.Zipf(u, spec.Pool, spec.Selectivity, zipfSkew, qseed)
	default:
		return nil, fmt.Errorf("unknown query kind %q", spec.Queries)
	}
	if len(pool) < batchSize {
		return nil, fmt.Errorf("pool of %d queries is smaller than one batch", len(pool))
	}
	pool = pool[:len(pool)/batchSize*batchSize]
	if spec.Queries != "clustered" {
		for r := 0; r < spec.Rounds; r++ {
			pool[roundStart(spec, r, len(pool))] = centreBox(spec)
		}
	}
	return pool, nil
}

// clusteredPool is the paper's clustered stream — clusterCount clusters,
// executed one after the other, each a Gaussian cloud of cubic queries —
// with one change from workload.Clustered: the cluster centres are fixed, on
// a Latin square of five slots per axis, and the seed only moves the queries
// around them. Random centres made the stream's cost a matter of luck: a
// cluster that straddles a face of the universe has its queries clipped and
// is cheaper by tens of percent, and two clusters that share a range on one
// axis share cracks. With five draws per stream that luck moved
// cumulative_s by 20 % from seed to seed. On the lattice no cluster touches
// a face or overlaps another on any axis, so every stream is the same
// amount of work on different data.
func clusteredPool(spec workloadSpec, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	u := dataset.Universe()
	side := workload.SideForSelectivity(u, spec.Selectivity)
	slot := func(i int) float64 { return dataset.UniverseSide * (0.15 + 0.175*float64(i%clusterCount)) }
	per := spec.Pool / clusterCount
	pool := make([]geom.Box, 0, clusterCount*per)
	for c := 0; c < clusterCount; c++ {
		cc := geom.Point{slot(c), slot(2 * c), slot(3 * c)}
		for i := 0; i < per; i++ {
			var q geom.Box
			for d := range cc {
				lo := cc[d] + rng.NormFloat64()*clusterSigma - side/2
				q.Min[d] = math.Max(lo, u.Min[d])
				q.Max[d] = math.Min(lo+side, u.Max[d])
			}
			pool = append(pool, q)
		}
	}
	return pool
}

// roundStart is where round r enters a pool of n queries: r/rounds of the
// way in, on a batch boundary, so that the rounds read different tails of a
// randomly placed pool. The clustered stream always starts at its first
// cluster: its geometry is fixed, and the order of the clusters decides how
// much work the stream is (starting at the middle slot halves the array for
// everything after; starting at an outer one does not).
func roundStart(spec workloadSpec, r, n int) int {
	if spec.Queries == "clustered" {
		return 0
	}
	return r * (n / batchSize) / spec.Rounds * batchSize
}

// centreBox is query #1 of every round on the randomly placed pools: a cube
// of the pool's size in the middle of the universe. What a first query costs
// depends on where its faces cut the unindexed array (a cut near the middle
// swaps half the rows, a cut near a face almost none), so a random first box
// made first_query_ms vary two-fold between seeds; with the place fixed,
// only the data differs.
func centreBox(spec workloadSpec) geom.Box {
	u := dataset.Universe()
	return geom.BoxAt(u.Center(), workload.SideForSelectivity(u, spec.Selectivity))
}

// splitmix is the SplitMix64 finaliser: a stateless hash from a counter to
// 64 well-mixed bits, so write object i is a pure function of (seed, i) and
// no write stream has to be stored or bounded in advance.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// writeObject is the i-th object of the write stream: a small box (sides
// 1–10, like 99 % of the uniform dataset) placed uniformly in the universe.
func (in *inputs) writeObject(i int) geom.Object {
	var o geom.Object
	o.ID = in.writeBase + int32(i)
	h := uint64(in.seed)*0xD1342543DE82EF95 + uint64(i)*2*geom.Dims
	for d := 0; d < geom.Dims; d++ {
		side := 1 + 9*unit(splitmix(h+uint64(2*d)))
		lo := unit(splitmix(h+uint64(2*d+1))) * (dataset.UniverseSide - side)
		o.Min[d], o.Max[d] = lo, lo+side
	}
	return o
}

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// writeStream is the writer's deterministic schedule: inserts and deletes
// alternate once writeLag objects are live, and a delete always removes the
// oldest live object, which was inserted 2·writeLag writes earlier. Objects
// [deleted, inserted) are live.
type writeStream struct {
	ops      int
	inserted int
	deleted  int
}

// next reports the following op: the write-stream index it concerns and
// whether it is a delete.
func (w *writeStream) next() (i int, del bool) {
	if w.ops%2 == 1 && w.inserted-w.deleted >= writeLag {
		return w.deleted, true
	}
	return w.inserted, false
}

// done records that the op next returned was acknowledged.
func (w *writeStream) done(del bool) {
	w.ops++
	if del {
		w.deleted++
	} else {
		w.inserted++
	}
}
