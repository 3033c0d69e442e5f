// Graph analytics without access-pattern leakage: connected components and
// minimum spanning forest on an outsourced graph (§5.3 / Theorem 5.2(ii)).
package main

import (
	"fmt"
	"log"

	"oblivmc"
	"oblivmc/internal/prng"
)

func main() {
	// A random sparse graph: two planted clusters plus noise edges.
	const n = 40
	src := prng.New(99)
	var edges [][2]int
	for v := 1; v < n/2; v++ { // cluster A: vertices 0..19
		edges = append(edges, [2]int{src.Intn(v), v})
	}
	for v := n/2 + 1; v < n; v++ { // cluster B: vertices 20..39
		edges = append(edges, [2]int{n/2 + src.Intn(v-n/2), v})
	}

	// Graphs are width-2 edge tables (endpoints as key columns, weight as
	// value); the noise-free clusters carry random weights for the MSF.
	wedges := make([]oblivmc.WeightedEdge, 0, len(edges)+10)
	for _, e := range edges {
		wedges = append(wedges, oblivmc.WeightedEdge{U: e[0], V: e[1], W: src.Uint64n(1000)})
	}
	tab, err := oblivmc.NewEdgeTable(wedges)
	if err != nil {
		log.Fatal(err)
	}
	labels, _, err := oblivmc.Components(oblivmc.Config{Seed: 3}, tab, 0)
	if err != nil {
		log.Fatal(err)
	}
	comps := map[uint64][]uint64{}
	for _, r := range labels.Rows() {
		comps[r.Val] = append(comps[r.Val], r.Key)
	}
	fmt.Printf("connected components (oblivious min-hook labeling): %d components\n", len(comps))
	for _, members := range comps {
		fmt.Printf("  %v\n", members)
	}

	// Weighted version: minimum spanning forest, with extra redundant edges
	// so the MSF has real choices to make.
	for k := 0; k < 10; k++ {
		u, v := src.Intn(n/2), src.Intn(n/2)
		if u != v {
			wedges = append(wedges, oblivmc.WeightedEdge{U: u, V: v, W: src.Uint64n(1000)})
		}
	}
	if tab, err = oblivmc.NewEdgeTable(wedges); err != nil {
		log.Fatal(err)
	}
	forest, _, err := oblivmc.MSF(oblivmc.Config{Seed: 4}, tab)
	if err != nil {
		log.Fatal(err)
	}
	var total uint64
	for _, r := range forest.WideRows() {
		total += r.Val
	}
	fmt.Printf("\nminimum spanning forest (oblivious Borůvka): %d edges, weight %d\n",
		forest.Len(), total)

	// Tree analytics on one of the spanning trees: depths, subtree sizes.
	treeEdges := edges[:n/2-1] // cluster A is a tree already
	tf, _, err := oblivmc.TreeFunctions(oblivmc.Config{Seed: 5}, n/2, treeEdges, 0)
	if err != nil {
		log.Fatal(err)
	}
	deepest, dv := uint64(0), 0
	for v, d := range tf.Depth {
		if d > deepest {
			deepest, dv = d, v
		}
	}
	fmt.Printf("\ncluster A as a rooted tree (oblivious Euler tour + list ranking):\n")
	fmt.Printf("  deepest vertex: %d at depth %d; root subtree size %d\n",
		dv, deepest, tf.SubtreeSize[0])
}
