package core

// Tests of refinement on skewed data: a slice finalized above its threshold
// because its keys all coincide must stay final, or every later query
// touching it re-cracks it and rebuilds its whole subtree.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/workload"
)

// TestDuplicateKeySliceNotRecracked: 5·τ_x rows share Min.x, so artificial
// refinement finalizes their slice above τ_x. A second identical query must
// crack nothing and leave the hierarchy as it was.
func TestDuplicateKeySliceNotRecracked(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(1))
	data := make([]geom.Object, n)
	for i := range data {
		x := 0.0
		if i%2 == 1 {
			x = 1 + 99*rng.Float64()
		}
		y, z := 100*rng.Float64(), 100*rng.Float64()
		data[i] = geom.Object{Box: geom.Box{Min: geom.Point{x, y, z}, Max: geom.Point{x + 0.5, y + 0.5, z + 0.5}}, ID: int32(i)}
	}
	ix := New(data, Config{Tau: 4})
	if dup := n / 2; dup != 5*ix.Tau(0) {
		t.Fatalf("%d rows share Min.x, want 5·τ_x = %d", dup, 5*ix.Tau(0))
	}
	q := geom.Box{Min: geom.Point{0, 20, 20}, Max: geom.Point{0.5, 40, 40}}
	want := len(ix.Query(q, nil))
	dup := ix.root.slices[0]
	if !dup.refined || dup.size() != n/2 {
		t.Fatalf("first x-slice [%d,%d) refined=%v, want the %d duplicate-key rows finalized", dup.lo, dup.hi, dup.refined, n/2)
	}
	before, slices := ix.Stats(), ix.NumSlices()
	if got := len(ix.Query(q, nil)); got != want {
		t.Fatalf("repeat found %d objects, want %d", got, want)
	}
	after := ix.Stats()
	if after.Cracks != before.Cracks || ix.NumSlices() != slices || ix.root.slices[0] != dup {
		t.Fatalf("repeat made %d cracks and moved the slice count %d -> %d; want neither", after.Cracks-before.Cracks, slices, ix.NumSlices())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// faceQueries returns, per dimension, a box on the universe's lower face
// and one on its upper face, each centred in the other dimensions on a data
// object — where Neuro clamps its coordinates and duplicate keys collect.
func faceQueries(data []geom.Object, selectivity float64, seed int64) []geom.Box {
	u := dataset.Universe()
	side := workload.SideForSelectivity(u, selectivity)
	rng := rand.New(rand.NewSource(seed))
	var out []geom.Box
	for d := 0; d < geom.Dims; d++ {
		for _, upper := range []bool{false, true} {
			c := data[rng.Intn(len(data))].Center()
			var b geom.Box
			for e := 0; e < geom.Dims; e++ {
				b.Min[e], b.Max[e] = c[e]-side/2, c[e]+side/2
			}
			if upper {
				b.Min[d], b.Max[d] = u.Max[d]-side, u.Max[d]
			} else {
				b.Min[d], b.Max[d] = u.Min[d], u.Min[d]+side
			}
			out = append(out, b)
		}
	}
	return out
}

// TestRepeatedQueryCracksNothing: a query leaves every slice it touches
// within its threshold or final, so the same query repeated at once cracks
// nothing and creates no slice — on uniform data and on Neuro, whose
// clamped coordinates produce duplicate-key slices above τ.
func TestRepeatedQueryCracksNothing(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 50_000
	}
	for _, set := range []struct {
		name string
		gen  func(seed int64) []geom.Object
	}{
		{"uniform", func(seed int64) []geom.Object { return dataset.Uniform(n, seed) }},
		{"neuro", func(seed int64) []geom.Object { return dataset.Neuro(n, seed, dataset.NeuroConfig{}) }},
	} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", set.name, seed), func(t *testing.T) {
				data := set.gen(seed)
				queries := workload.ClusteredOn(dataset.Universe(), data, 5, 200, 1e-4, 30, seed+100)
				queries = append(queries, faceQueries(data, 1e-4, seed+200)...)
				ix := New(data, Config{})
				recracks := 0
				for _, q := range queries {
					ix.Query(q, nil)
					before, slices := ix.Stats().Cracks, ix.NumSlices()
					ix.Query(q, nil)
					if ix.Stats().Cracks != before || ix.NumSlices() != slices {
						recracks++
					}
				}
				if recracks > 0 {
					t.Errorf("%d of %d repeated queries cracked again", recracks, len(queries))
				}
				if err := ix.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
