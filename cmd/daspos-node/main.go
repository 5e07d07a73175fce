// Command daspos-node runs one storage node of the preservation network:
// a content-addressed blob store served over the wire protocol documented
// in internal/node. A blob travels as its stored form and nothing else: the
// node counts its size with the same fixity check that guards each write.
// Writes and fixity verdicts travel as lists, one request per node for a
// package's blobs or a pass's digests. A cluster is just N of these
// processes plus a client (internal/cluster) that places digests across
// them with consistent hashing and keeps them converged with anti-entropy
// sweeps, each reading one digest listing and one list of verdicts per
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
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"daspos/internal/daemon"
	"daspos/internal/node"
)

// serve is the listen-and-drain loop run hands the node's handler and
// drain hook to.
var serve = daemon.Serve

// errUsage is run's refusal of a command line; main exits 2 on it, as
// package flag does on a flag it cannot parse.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-node: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// run parses the flags in args and serves one node until ctx is done,
// logging to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	logger := log.New(w, "daspos-node: ", 0)
	fs := flag.NewFlagSet("daspos-node", flag.ExitOnError)
	fs.SetOutput(w)
	id := fs.String("id", "", "node identity within the cluster (required)")
	listen := fs.String("listen", ":7701", "listen address")
	_ = fs.Parse(args)
	if *id == "" {
		logger.Print("missing required -id")
		fs.Usage()
		return errUsage
	}

	n := node.New(*id, nil)
	logger.Printf("node %s serving on %s", *id, *listen)
	drained := func() error {
		logger.Printf("node %s drained (%d blobs held)", *id, n.Blobs())
		return nil
	}
	return serve(ctx, *listen, n.Handler(), drained)
}
