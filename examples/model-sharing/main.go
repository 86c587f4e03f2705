// Model sharing: the collaboration workflow of the paper's Sec. III-C. A
// "publisher" trains models in a local repository and pushes it to a hosted
// ModelHub server; a "consumer" discovers the repository with dlv search,
// pulls it, inspects the lineage, and fine-tunes a pulled model as the
// starting point for their own work — reuse of trained weights without
// retraining from scratch.
//
// Run with: go run ./examples/model-sharing
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"modelhub/internal/core"
	"modelhub/internal/hub"
)

func main() {
	// Start a ModelHub server on an ephemeral local port.
	serverData, err := os.MkdirTemp("", "modelhub-server-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(serverData)
	srv, err := hub.NewServer(serverData)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler()) //nolint:errcheck // demo server
	remote := "http://" + ln.Addr().String()
	ctx := context.Background()
	fmt.Println("modelhub server listening at", remote)

	// --- Publisher side ---
	pubDir, err := os.MkdirTemp("", "modelhub-pub-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(pubDir)
	pub, err := core.Init(pubDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npublisher: training two model versions...")
	baseID, err := pub.TrainAndCommit("digits-base", core.TrainOptions{
		Arch: "lenet", Epochs: 2, Seed: 1, Msg: "baseline for the digits task",
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pub.TrainAndCommit("digits-tuned", core.TrainOptions{
		Arch: "lenet", Epochs: 1, LR: 0.02, ParentID: baseID, Seed: 2,
		Msg: "fine-tuned with a lower learning rate",
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("publisher: dlv publish -name digits-models")
	if err := pub.PublishWith(ctx, remote, "digits-models", hub.Options{}); err != nil {
		log.Fatal(err)
	}

	// --- Consumer side ---
	fmt.Println("\nconsumer: dlv search -q digits")
	found, err := core.SearchWith(ctx, remote, "digits", hub.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range found {
		fmt.Printf("  %s (%d bytes), models: %v\n", info.Name, info.SizeBytes, info.Models)
	}

	conDir, err := os.MkdirTemp("", "modelhub-con-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(conDir)
	fmt.Println("consumer: dlv pull -name digits-models")
	con, err := core.PullWith(ctx, remote, "digits-models", conDir, hub.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The pulled repository carries the full lineage and metadata.
	versions, err := con.Repo.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("consumer: pulled repository contents:")
	for _, v := range versions {
		parent := "-"
		if v.ParentID != 0 {
			parent = fmt.Sprintf("v%d", v.ParentID)
		}
		fmt.Printf("  v%d %-14s parent=%-3s accuracy=%.4f  %q\n", v.ID, v.Name, parent, v.Accuracy, v.Msg)
	}

	// Reuse: fine-tune the pulled model as initialization (the paper's
	// warm-start workflow), producing a third version with recorded lineage.
	tuned, err := con.Repo.VersionByName("digits-tuned")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconsumer: fine-tuning the pulled model for local data...")
	localID, err := con.TrainAndCommit("digits-local", core.TrainOptions{
		Arch: "lenet", Epochs: 1, LR: 0.01, ParentID: tuned.ID, Seed: 7,
		Msg: "fine-tuned from the pulled digits-tuned",
	})
	if err != nil {
		log.Fatal(err)
	}
	lineage, err := con.Repo.Lineage(localID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: new version v%d with lineage back through %v\n", localID, lineage)
	local, err := con.Repo.Version(localID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: local accuracy %.4f (warm start from the shared model)\n", local.Accuracy)

}
