// Command daspos-node runs one storage node of the preservation network:
// a content-addressed blob store served over the wire protocol documented
// in internal/node. A blob travels as its stored form and nothing else: the
// node counts its size with the same fixity check that guards each PUT. A
// cluster is just N of these processes plus a client (internal/cluster)
// that places digests across them with consistent hashing and keeps them
// converged with anti-entropy sweeps, each reading one digest listing per
// node.
//
// Usage:
//
//	daspos-node -id site-a -listen :7701
//
// The node stores blobs in memory, sharded for concurrent access: they are
// lost when it stops, and the replication factor does not save them from a
// power cut that stops every node at once. Durable nodes, on
// cas.DiskBackend, are ROADMAP item 1. The archive layer's package index
// is manifests stored in the fleet as blobs like any other, so a
// coordinator can rebuild it from the nodes. SIGINT/SIGTERM drain
// in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"daspos/internal/daemon"
	"daspos/internal/node"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-node: ")
	id := flag.String("id", "", "node identity within the cluster (required)")
	listen := flag.String("listen", ":7701", "listen address")
	flag.Parse()
	if *id == "" {
		log.Print("missing required -id")
		flag.Usage()
		os.Exit(2)
	}

	n := node.New(*id, nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("node %s serving on %s", *id, *listen)
	drained := func() error {
		log.Printf("node %s drained (%d blobs held)", *id, n.Blobs())
		return nil
	}
	if err := daemon.Serve(ctx, *listen, n.Handler(), drained); err != nil {
		log.Fatal(err)
	}
}
