package zorder

import "testing"

func BenchmarkEncode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Encode(uint32(i)&1023, uint32(i>>10)&1023, uint32(i>>20)&1023)
	}
	_ = sink
}

func BenchmarkDecode(b *testing.B) {
	var sink uint32
	for i := 0; i < b.N; i++ {
		x, y, z := Decode(uint64(i))
		sink += x + y + z
	}
	_ = sink
}

func BenchmarkDecomposeSmallRange(b *testing.B) {
	lo, hi := [3]uint32{100, 200, 300}, [3]uint32{140, 240, 340}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decompose(lo, hi, BitsPerDim, 0)
	}
}

func BenchmarkDecomposeCapped(b *testing.B) {
	lo, hi := [3]uint32{100, 200, 300}, [3]uint32{400, 500, 600}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decompose(lo, hi, BitsPerDim, 256)
	}
}
