// Streaming arrivals: indexing data that keeps growing.
//
// The paper assumes a static setting — all data available before the first
// query (Sec. 2). Real deployments rarely cooperate, so this example
// contrasts two ways of serving an insert-heavy exploration session:
//
//   - QUASII.Append buffers arrivals (scanned linearly by every query) and
//     Flush merges them into the cracked array, each arrival joining the
//     slice its lower corner routes to, so refinement carries on where the
//     earlier queries left it;
//   - the paper's static setting, applied batch by batch: an STR R-tree
//     bulk-loaded again over everything that has arrived so far.
//
// Every query's result set is checked against the R-tree's; the program
// panics on the first mismatch.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"slices"
	"time"

	quasii "repro"
)

func main() {
	const (
		initial   = 60000
		batches   = 5
		batchSize = 8000
		perBatch  = 40 // queries between arrivals
	)
	base := quasii.UniformDataset(initial, 31)
	arrivals := quasii.UniformDataset(batches*batchSize, 32)
	for i := range arrivals {
		arrivals[i].ID += int32(initial) // keep IDs unique across the stream
	}
	queries := quasii.UniformQueries(batches*perBatch, 1e-3, 33)

	// QUASII with Append/Flush.
	ix := quasii.NewQUASII(quasii.CloneObjects(base), quasii.QUASIIConfig{})
	// STR R-tree over the initial load; NewRTree copies its input, so
	// arrived can keep growing underneath it.
	arrived := base
	start := time.Now()
	rt := quasii.NewRTree(arrived, quasii.RTreeConfig{})
	fmt.Printf("initial load: STR R-tree build over %d objects took %v; QUASII was ready instantly\n",
		initial, time.Since(start))

	var qTime, rTime time.Duration
	var got, want []int32
	for b := 0; b < batches; b++ {
		batch := arrivals[b*batchSize : (b+1)*batchSize]
		// Arrivals land mid-session.
		t0 := time.Now()
		ix.Append(batch...)
		appendTime := time.Since(t0)
		arrived = append(arrived, batch...)
		t0 = time.Now()
		rt = quasii.NewRTree(arrived, quasii.RTreeConfig{})
		rebuildTime := time.Since(t0)

		// Then the analyst keeps querying.
		for qi, q := range queries[b*perBatch : (b+1)*perBatch] {
			t0 = time.Now()
			got = ix.Query(q, got[:0])
			qTime += time.Since(t0)
			t0 = time.Now()
			want = rt.Query(q, want[:0])
			rTime += time.Since(t0)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				panic(fmt.Sprintf("batch %d query %d: QUASII returned %d ids, R-tree %d, and the sets differ",
					b+1, qi, len(got), len(want)))
			}
		}
		fmt.Printf("batch %d: append %v (QUASII, %d pending) vs rebuild %v (STR R-tree)\n",
			b+1, appendTime, ix.Pending(), rebuildTime)

		// Fold the buffered arrivals when the pending scan starts to hurt.
		if ix.Pending() > 2*batchSize {
			t0 = time.Now()
			ix.Flush()
			fmt.Printf("         flushed pending objects into the cracked array in %v\n", time.Since(t0))
		}
	}
	fmt.Printf("\nquery time over the whole session: QUASII %v, STR R-tree %v\n", qTime, rTime)
	fmt.Printf("final sizes: QUASII %d, STR R-tree %d\n", ix.Len(), rt.Len())
	fmt.Println("\ntake-away: the paper's static setting means rebuilding the STR R-tree over")
	fmt.Println("all data on every arrival batch; buffered cracking keeps arrivals cheap and")
	fmt.Println("pays at query time instead, until a Flush folds them in.")
}
