// Progressive evaluation: the paper's Sec. IV-D demonstrated end to end.
//
// A convnet is trained and its weights segmented into byte planes. Queries
// are answered with interval arithmetic over only the high-order planes,
// refining with more planes only when the Lemma-4 condition cannot certify
// the prediction — exactly reproducing the behaviour behind Fig. 6(d).
//
// Run with: go run ./examples/progressive-eval
package main

import (
	"fmt"
	"log"
	"math/rand"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/floatenc"
	"modelhub/internal/perturb"
	"modelhub/internal/zoo"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	examples := data.Digits(rng, 800, 0.05)
	train, test := data.Split(examples, 0.8)

	fmt.Println("training a LeNet on the synthetic digit task...")
	def := zoo.LeNet("lenet")
	net, err := dnn.Build(def, rand.New(rand.NewSource(2)))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dnn.Train(net, train, dnn.TrainConfig{Epochs: 5, BatchSize: 16, LR: 0.1, Seed: 3}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-precision test accuracy: %.4f\n\n", dnn.Evaluate(net, test))

	// Show how well each byte plane compresses — the premise of
	// segmentation (high-order planes have low entropy).
	snap := net.Snapshot()
	fmt.Println("byte-plane entropy and compressed size of the ip1 weights:")
	seg := floatenc.Segment(snap["ip1"])
	for p := 0; p < floatenc.NumPlanes; p++ {
		z, err := floatenc.CompressedSize(seg.Planes[p])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  plane %d: entropy %.2f bits/byte, %6d -> %6d bytes\n",
			p, seg.PlaneEntropy(p), len(seg.Planes[p]), z)
	}

	fmt.Println("\nanswering queries progressively (top-1 determinism via Lemma 4):")
	ev, err := perturb.NewEvaluator(def)
	if err != nil {
		log.Fatal(err)
	}
	src := perturb.NewSegmentedSource(snap)
	ins := make([]*dnn.Volume, len(test))
	for i, ex := range test {
		ins[i] = ex.Input
	}
	results, err := perturb.ProgressiveBatch(ev, src, ins, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	var hist [5]int
	correct := 0
	for i, res := range results {
		hist[res.PrefixUsed]++
		if res.Labels[0] == test[i].Label {
			correct++
		}
	}
	total := len(test)
	fmt.Printf("progressive accuracy: %.4f over %d queries\n", float64(correct)/float64(total), total)
	cum := 0
	for p := 1; p <= 4; p++ {
		cum += hist[p]
		fmt.Printf("  resolved with %d plane(s): %4d (%.1f%%, cumulative %.1f%%, bytes read %.0f%%)\n",
			p, hist[p], 100*float64(hist[p])/float64(total), 100*float64(cum)/float64(total),
			100*float64(p)/4)
	}
	fmt.Println("\nmost queries resolve from the high-order bytes alone — the paper's")
	fmt.Println("progressive query result (Fig. 6(d)), reproduced on a live model.")
}
