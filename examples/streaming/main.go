// Streaming arrivals: indexing data that keeps growing.
//
// The paper assumes a static setting — all data available before the first
// query (Sec. 2). Real deployments rarely cooperate, so the library offers
// two escape hatches, contrasted here on an insert-heavy exploration session:
//
//   - QUASII.Append buffers arrivals (scanned linearly by every query) and
//     Flush merges them into the cracked array, each arrival joining the
//     slice its lower corner routes to, so refinement carries on where the
//     earlier queries left it;
//   - DynRTree is a classic Guttman R-tree that absorbs inserts natively at
//     the cost of slower construction and more node overlap than STR.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
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
	// Dynamic R-tree, inserting the initial load one object at a time.
	start := time.Now()
	dyn := quasii.NewDynRTree(quasii.RTreeConfig{})
	for _, o := range base {
		dyn.Insert(o)
	}
	fmt.Printf("initial load: DynRTree insert of %d objects took %v; QUASII was ready instantly\n",
		initial, time.Since(start))

	var qTime, dTime time.Duration
	var buf []int32
	for b := 0; b < batches; b++ {
		batch := arrivals[b*batchSize : (b+1)*batchSize]
		// Arrivals land mid-session.
		t0 := time.Now()
		ix.Append(batch...)
		appendTime := time.Since(t0)
		t0 = time.Now()
		for _, o := range batch {
			dyn.Insert(o)
		}
		insertTime := time.Since(t0)

		// Then the analyst keeps querying.
		var mismatch int
		t0 = time.Now()
		for _, q := range queries[b*perBatch : (b+1)*perBatch] {
			buf = ix.Query(q, buf[:0])
			mismatch += len(buf)
		}
		qTime += time.Since(t0)
		t0 = time.Now()
		for _, q := range queries[b*perBatch : (b+1)*perBatch] {
			buf = dyn.Query(q, buf[:0])
			mismatch -= len(buf)
		}
		dTime += time.Since(t0)
		if mismatch != 0 {
			panic("indexes disagree")
		}
		fmt.Printf("batch %d: append %v (QUASII, %d pending) vs insert %v (DynRTree)\n",
			b+1, appendTime, ix.Pending(), insertTime)

		// Fold the buffered arrivals when the pending scan starts to hurt.
		if ix.Pending() > 2*batchSize {
			t0 = time.Now()
			ix.Flush()
			fmt.Printf("         flushed pending objects into the cracked array in %v\n", time.Since(t0))
		}
	}
	fmt.Printf("\nquery time over the whole session: QUASII %v, DynRTree %v\n", qTime, dTime)
	fmt.Printf("final sizes: QUASII %d, DynRTree %d\n", ix.Len(), dyn.Len())
	fmt.Println("\ntake-away: buffered cracking keeps arrivals cheap and pays at query time;")
	fmt.Println("the dynamic R-tree pays at insert time and queries stay flat.")
}
