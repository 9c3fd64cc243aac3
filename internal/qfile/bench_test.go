package qfile

import (
	"math/rand"
	"testing"

	"joinopt/internal/catalog"
	"joinopt/internal/workload"
)

var (
	benchQuery *catalog.Query
	benchBytes []byte
)

// smokeQuery is the repository's 20-join smoke query.
func smokeQuery() *catalog.Query {
	return workload.Default().Generate(20, rand.New(rand.NewSource(42)))
}

// BenchmarkDecode20 prices the serve JSON edge's query decode: one
// pass over the body plus the exact-size result allocations.
func BenchmarkDecode20(b *testing.B) {
	data, err := Append(nil, smokeQuery())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchQuery, err = Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend20 writes the smoke query into a reused buffer, which
// must cost no allocation.
func BenchmarkAppend20(b *testing.B) {
	q := smokeQuery()
	buf, err := Append(nil, q)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = Append(buf[:0], q); err != nil {
			b.Fatal(err)
		}
	}
	benchBytes = buf
}
