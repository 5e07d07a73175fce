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
// power cut that stops every node at once. Durable nodes, on cas.Dir, are
// ROADMAP item 1. The archive layer's package index stays on the
// coordinating side. SIGINT/SIGTERM drain in-flight requests and exit
// cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

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
	srv := &http.Server{
		Addr:              *listen,
		Handler:           n.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("node %s serving on %s", *id, *listen)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("node %s draining (%d blobs held)", *id, n.Blobs())
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("shutdown: %v", err)
	}
}
