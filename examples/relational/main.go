// Private relational analytics — the paper's §1 workload realized with the
// oblivious relational operator engine: a client outsources an encrypted
// sales database to an untrusted cloud with a secure multicore processor
// and asks "which three products earned the most revenue from large
// purchases?" plus a join against a product dimension table. The memory
// trace the cloud observes is identical for any database of the same size.
package main

import (
	"fmt"
	"log"

	"oblivmc"
	"oblivmc/internal/trace"
)

func main() {
	// A toy sales fact table: Key = product id, Val = sale amount.
	sales := []oblivmc.Row{
		{Key: 3, Val: 250}, {Key: 1, Val: 40}, {Key: 2, Val: 310},
		{Key: 3, Val: 90}, {Key: 1, Val: 500}, {Key: 2, Val: 75},
		{Key: 4, Val: 620}, {Key: 3, Val: 410}, {Key: 1, Val: 130},
		{Key: 4, Val: 55}, {Key: 2, Val: 220}, {Key: 4, Val: 180},
	}
	facts, err := oblivmc.NewTable(sales)
	if err != nil {
		log.Fatal(err)
	}

	// One declarative oblivious pipeline: keep sales >= 100, total them per
	// product, return the top-3 products by revenue.
	q := oblivmc.Query{
		Filter:  func(r oblivmc.Row) bool { return r.Val >= 100 },
		GroupBy: oblivmc.AggSum,
		TopK:    3,
	}
	if pl, err := oblivmc.ExplainTable(facts, q); err == nil {
		// The sort-fusion planner compiles the public query shape into a
		// pass sequence with fewer sorting-network passes than running the
		// stages one operator at a time.
		fmt.Printf("plan: %s\n\n", pl)
	}
	top3, _, err := oblivmc.RunQuery(oblivmc.Config{Seed: 1}, facts, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-3 products by revenue from large sales (oblivious filter→group-by→top-k):")
	for i, r := range top3.Rows() {
		fmt.Printf("  #%d product %d: revenue %d\n", i+1, r.Key, r.Val)
	}

	// Oblivious sort-merge join: attach each sale's unit price from the
	// product dimension table without revealing which products sell.
	prices, err := oblivmc.NewTable([]oblivmc.Row{
		{Key: 1, Val: 10}, {Key: 2, Val: 25}, {Key: 3, Val: 40}, {Key: 4, Val: 60},
	})
	if err != nil {
		log.Fatal(err)
	}
	joined, _, err := oblivmc.Join(oblivmc.Config{Seed: 2}, prices, facts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst sales joined with unit prices (oblivious sort-merge join):")
	for _, j := range joined[:4] {
		fmt.Printf("  product %d: amount %d at unit price %d\n", j.Key, j.RightVal, j.LeftVal)
	}

	// Many-to-many join via oblivious expansion: each product carries
	// *several* promotion rows (left keys repeat, which Join rejects), and
	// every sale matches every promotion of its product. The output
	// capacity is public shape — the true match count stays hidden in the
	// trace and is only reported back through the overflow error when the
	// capacity is too small.
	promos, err := oblivmc.NewTable([]oblivmc.Row{
		{Key: 1, Val: 5}, {Key: 1, Val: 10}, // product 1: two promos
		{Key: 2, Val: 15}, {Key: 4, Val: 20}, {Key: 4, Val: 25},
	})
	if err != nil {
		log.Fatal(err)
	}
	pairs, _, err := oblivmc.JoinAllRows(oblivmc.Config{Seed: 4}, promos, facts, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst (promotion, sale) pairs — many-to-many oblivious JoinAllRows (%d matches):\n", len(pairs))
	for _, p := range pairs[:4] {
		fmt.Printf("  product %d: sale %d under promo discount %d%%\n", p.Keys[0], p.RightVal, p.LeftVal)
	}

	// The same join feeds a declarative pipeline: how many promoted sales
	// does each product have? The planner defers the join's
	// propagate+compact sorts into the group-by's own passes.
	jq := oblivmc.Query{
		Join:    &oblivmc.JoinSpec{Left: promos, MaxOut: 32},
		GroupBy: oblivmc.AggCount,
	}
	if pl, err := oblivmc.ExplainTable(facts, jq); err == nil {
		fmt.Printf("\njoined-query plan: %s\n", pl)
	}
	promoted, _, err := oblivmc.RunQuery(oblivmc.Config{Seed: 4}, facts, jq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("promoted-sale counts per product (join-all → group-by(count)):")
	for _, r := range promoted.Rows() {
		fmt.Printf("  product %d: %d (sale, promo) pairs\n", r.Key, r.Val)
	}

	// Composite keys: GROUP BY (region, product) with a one-pass average.
	// Key columns span the full uint64 range — region ids here are hashes
	// far above the old 2^40 packed-key ceiling — and the key tuple, like
	// the row count, is public schema while its values stay secret.
	const west, east = 0x9e3779b97f4a7c15, 0x517cc1b727220a95
	regional, err := oblivmc.NewWideTable([]oblivmc.WideRow{
		{Keys: []uint64{west, 1}, Val: 40}, {Keys: []uint64{east, 1}, Val: 500},
		{Keys: []uint64{west, 2}, Val: 310}, {Keys: []uint64{west, 1}, Val: 130},
		{Keys: []uint64{east, 2}, Val: 75}, {Keys: []uint64{east, 1}, Val: 220},
	})
	if err != nil {
		log.Fatal(err)
	}
	avg, _, err := oblivmc.GroupBy(oblivmc.Config{Seed: 3}, regional, oblivmc.AggAvg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naverage sale per (region, product) — oblivious GROUP BY (a, b) with AggAvg:")
	for _, r := range avg.WideRows() {
		fmt.Printf("  region %x, product %d: avg %d\n", r.Keys[0], r.Keys[1], r.Val)
	}

	// The proof of privacy: run the same query on a database with totally
	// different contents (different products, amounts, duplication) and
	// compare the adversary's views.
	other := make([]oblivmc.Row, len(sales))
	for i := range other {
		other[i] = oblivmc.Row{Key: 9, Val: uint64(i)}
	}
	viewOf := func(rows []oblivmc.Row) trace.Fingerprint {
		tab, err := oblivmc.NewTable(rows)
		if err != nil {
			log.Fatal(err)
		}
		_, rep, err := oblivmc.RunQuery(oblivmc.Config{
			Mode: oblivmc.ModeMetered, Trace: true, Seed: 5,
		}, tab, oblivmc.Query{
			Filter:  func(r oblivmc.Row) bool { return r.Val >= 100 },
			GroupBy: oblivmc.AggSum,
			TopK:    3,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep.TraceFingerprint
	}
	v1, v2 := viewOf(sales), viewOf(other)
	fmt.Println("\nadversary's view of the query:")
	fmt.Printf("  database 1: %016x/%d\n", v1.Hash, v1.Count)
	fmt.Printf("  database 2: %016x/%d\n", v2.Hash, v2.Count)
	if v1.Equal(v2) {
		fmt.Println("  identical views => the query leaks nothing about the records")
	} else {
		fmt.Println("  VIEWS DIFFER — obliviousness violated!")
	}
}
