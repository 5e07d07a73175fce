// Package daemon is the one listen-and-drain sequence of the DASPOS
// daemons (daspos-node, daspos-query serve, daspos-recast serve), and the
// one way their handlers reply in JSON.
//
// http.Server.ListenAndServe returns http.ErrServerClosed the moment
// Shutdown starts, not when the last in-flight request has finished, so an
// owner that closes its state once ListenAndServe returns closes it under
// handlers still using it. Serve orders the stop instead: stop accepting,
// wait for every in-flight request, and only then close the owner's state.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// drainTimeout bounds the wait for in-flight requests once a daemon is
// told to stop; readHeaderTimeout bounds how long a client may take to
// send its request headers.
const (
	drainTimeout      = 10 * time.Second
	readHeaderTimeout = 10 * time.Second
)

// Serve listens on addr and serves h until ctx is done. It then stops
// accepting connections, waits up to ten seconds for every in-flight
// request to finish, and only after that calls closeFn, if it is not nil.
// It returns the errors of serving, draining and closing, joined; a failure
// to listen returns at once.
func Serve(ctx context.Context, addr string, h http.Handler, closeFn func() error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return serve(ctx, ln, h, closeFn)
}

func serve(ctx context.Context, ln net.Listener, h http.Handler, closeFn func() error) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served:
		err = fmt.Errorf("daemon: serving: %w", err)
	case <-ctx.Done():
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err = hs.Shutdown(drainCtx); err != nil {
			err = fmt.Errorf("daemon: draining: %w", err)
		}
		cancel()
		<-served // http.ErrServerClosed, returned as Shutdown began
	}
	if closeFn != nil {
		err = errors.Join(err, closeFn())
	}
	return err
}

// WriteJSON replies with status code and v encoded as JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Error replies with status code and the JSON body {"error": msg}.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
