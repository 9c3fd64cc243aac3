package joingraph

import (
	"math/rand"
	"testing"

	"joinopt/internal/workload"
)

var benchGraph *Graph

// BenchmarkJoinGraphNew20 builds the join graph of the smoke workload's
// 20-join query (21 relations, generator seed 42), as every miss does
// once. Budgeted in ALLOC_BUDGETS.json: the graph, its edges, its
// neighbor masks and one allocation for the CSR lanes.
func BenchmarkJoinGraphNew20(b *testing.B) {
	q := workload.Default().Generate(20, rand.New(rand.NewSource(42)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = New(q)
	}
}
