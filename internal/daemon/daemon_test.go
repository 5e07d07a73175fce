package daemon

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// signalingListener closes closing when the server closes it, which
// http.Server.Shutdown does first.
type signalingListener struct {
	net.Listener
	once    sync.Once
	closing chan struct{}
}

func (l *signalingListener) Close() error {
	l.once.Do(func() { close(l.closing) })
	return l.Listener.Close()
}

// TestDrainFinishesInFlightBeforeClose holds a request inside its handler
// across cancellation. The request is still answered 2xx, and the close
// function runs only after the handler has returned: the owner's state
// (RECAST's request ledger, say) outlives every handler that may append to
// it.
func TestDrainFinishesInFlightBeforeClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &signalingListener{Listener: ln, closing: make(chan struct{})}
	entered, release := make(chan struct{}), make(chan struct{})
	var handled atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		handled.Store(true)
		w.WriteHeader(http.StatusAccepted)
	})
	closed := make(chan bool, 1) // whether the handler had returned when closeFn ran
	closeFn := func() error {
		closed <- handled.Load()
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, sl, h, closeFn) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	cancel()
	<-sl.closing // the drain has begun
	select {
	case <-closed:
		t.Fatal("the close function ran while a request was in flight")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if code := <-status; code != http.StatusAccepted {
		t.Fatalf("the in-flight request was answered %d, want 202", code)
	}
	if !<-closed {
		t.Fatal("the close function ran before the in-flight handler returned")
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
