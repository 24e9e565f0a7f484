package zorder

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKnown(t *testing.T) {
	tests := []struct {
		x, y, z uint32
		code    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, tt := range tests {
		if got := Encode(tt.x, tt.y, tt.z); got != tt.code {
			t.Errorf("Encode(%d,%d,%d) = %d, want %d", tt.x, tt.y, tt.z, got, tt.code)
		}
		x, y, z := Decode(tt.code)
		if x != tt.x || y != tt.y || z != tt.z {
			t.Errorf("Decode(%d) = %d,%d,%d, want %d,%d,%d", tt.code, x, y, z, tt.x, tt.y, tt.z)
		}
	}
}

func TestEncodeDecodeRoundTripQuick(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= MaxCoord(BitsPerDim)
		y &= MaxCoord(BitsPerDim)
		z &= MaxCoord(BitsPerDim)
		gx, gy, gz := Decode(Encode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeMonotoneInOctant(t *testing.T) {
	// Within a single octant at the top level, codes of the low octant are
	// all smaller than codes of the high octant.
	const bits = 4
	half := uint32(1) << (bits - 1)
	loMax := Encode(half-1, half-1, half-1)
	hiMin := Encode(half, 0, 0) // x crosses into the second octant
	if loMax >= hiMin {
		t.Fatalf("octant ordering violated: %d >= %d", loMax, hiMin)
	}
}

// coverGrid enumerates every cell in [0,2^bits)^3 and reports which are inside
// the query range — the brute-force reference for Decompose.
func coverGrid(lo, hi [3]uint32, bits uint) map[uint64]bool {
	want := make(map[uint64]bool)
	n := uint32(1) << bits
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			for z := uint32(0); z < n; z++ {
				inside := x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] && z >= lo[2] && z <= hi[2]
				if inside {
					want[Encode(x, y, z)] = true
				}
			}
		}
	}
	return want
}

func intervalsCover(ivs []Interval, code uint64) bool {
	for _, iv := range ivs {
		if code >= iv.Lo && code <= iv.Hi {
			return true
		}
	}
	return false
}

func TestDecomposeExactCoverage(t *testing.T) {
	const bits = 4
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		var lo, hi [3]uint32
		for d := 0; d < 3; d++ {
			a, b := rng.Uint32()&MaxCoord(bits), rng.Uint32()&MaxCoord(bits)
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		ivs := Decompose(lo, hi, bits, 0)
		want := coverGrid(lo, hi, bits)
		total := uint64(1) << (3 * bits)
		for code := uint64(0); code < total; code++ {
			if intervalsCover(ivs, code) != want[code] {
				t.Fatalf("iter %d lo=%v hi=%v: cell %d coverage mismatch", iter, lo, hi, code)
			}
		}
	}
}

func TestDecomposeSortedAndMerged(t *testing.T) {
	ivs := Decompose([3]uint32{1, 2, 3}, [3]uint32{9, 8, 7}, BitsPerDim, 0)
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo <= ivs[i-1].Hi {
			t.Fatalf("intervals overlap or unsorted at %d: %v %v", i, ivs[i-1], ivs[i])
		}
		if ivs[i].Lo == ivs[i-1].Hi+1 {
			t.Fatalf("adjacent intervals not merged at %d: %v %v", i, ivs[i-1], ivs[i])
		}
	}
}

func TestDecomposeFullUniverse(t *testing.T) {
	const bits = 6
	max := MaxCoord(bits)
	ivs := Decompose([3]uint32{0, 0, 0}, [3]uint32{max, max, max}, bits, 0)
	if len(ivs) != 1 {
		t.Fatalf("full universe should be a single interval, got %d", len(ivs))
	}
	if ivs[0].Lo != 0 || ivs[0].Hi != uint64(1)<<(3*bits)-1 {
		t.Fatalf("interval = %v", ivs[0])
	}
}

func TestDecomposeSingleCell(t *testing.T) {
	ivs := Decompose([3]uint32{5, 6, 7}, [3]uint32{5, 6, 7}, BitsPerDim, 0)
	if len(ivs) != 1 {
		t.Fatalf("single cell should be one interval, got %d", len(ivs))
	}
	code := Encode(5, 6, 7)
	if ivs[0].Lo != code || ivs[0].Hi != code {
		t.Fatalf("interval = %v, want [%d,%d]", ivs[0], code, code)
	}
}

func TestDecomposeInvertedRange(t *testing.T) {
	if ivs := Decompose([3]uint32{5, 5, 5}, [3]uint32{4, 9, 9}, BitsPerDim, 0); ivs != nil {
		t.Fatalf("inverted range should yield nil, got %v", ivs)
	}
}

func TestDecomposeCapLimitsIntervals(t *testing.T) {
	const bits = 6
	// A thin diagonal-ish slab produces many intervals uncapped.
	lo, hi := [3]uint32{3, 0, 3}, [3]uint32{60, 63, 10}
	exact := Decompose(lo, hi, bits, 0)
	capped := Decompose(lo, hi, bits, 8)
	if len(exact) <= 8 {
		t.Skipf("query produced only %d intervals; cap not exercised", len(exact))
	}
	if len(capped) > 8+8 { // the cap is approximate: one frontier per level may finish
		t.Fatalf("cap ineffective: %d intervals", len(capped))
	}
	// Capped intervals must still cover every in-range cell (superset).
	want := coverGrid(lo, hi, bits)
	for code := range want {
		if !intervalsCover(capped, code) {
			t.Fatalf("capped decomposition misses cell %d", code)
		}
	}
}

func TestSpreadCompactInverse(t *testing.T) {
	f := func(v uint32) bool {
		v &= 0x1fffff
		return compact3(spread3(uint64(v))) == uint64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
