package recast

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"daspos/internal/daemon"
	"daspos/internal/resilience"
)

// TestClientClassifiesResponses checks the transient/permanent taxonomy on
// the client's wire errors: 429 and 5xx invite a retry (with the server's
// Retry-After attached as the hint), other 4xx do not. No error reply
// fills the caller's result, not even one whose body is a request.
func TestClientClassifiesResponses(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		class      resilience.Class
		hint       time.Duration
		snapshot   bool // the body is a request, not an error
	}{
		{"shed", http.StatusTooManyRequests, "7", resilience.Transient, 7 * time.Second, false},
		{"brownout", http.StatusServiceUnavailable, "2", resilience.Transient, 2 * time.Second, false},
		{"crash", http.StatusInternalServerError, "", resilience.Transient, 0, false},
		{"bad-request", http.StatusBadRequest, "", resilience.Permanent, 0, false},
		{"not-found", http.StatusNotFound, "", resilience.Permanent, 0, false},
		{"forbidden", http.StatusForbidden, "", resilience.Permanent, 0, false},
		{"conflict", http.StatusConflict, "", resilience.Permanent, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				if tc.snapshot {
					daemon.WriteJSON(w, tc.status, &Request{ID: "r-1", Status: StatusFailed})
					return
				}
				daemon.Error(w, tc.status, "nope")
			}))
			defer srv.Close()
			c := &Client{BaseURL: srv.URL}
			var out Request
			err := c.do(context.Background(), http.MethodGet, "/requests/r-1", nil, &out)
			if err == nil {
				t.Fatal("error expected")
			}
			if out.ID != "" || out.Status != "" {
				t.Fatalf("an HTTP %d reply filled the result: %+v", tc.status, out)
			}
			if got := resilience.Classify(err); got != tc.class {
				t.Fatalf("Classify(%v) = %s, want %s", err, got, tc.class)
			}
			var herr *HTTPError
			if !errors.As(err, &herr) || herr.Status != tc.status {
				t.Fatalf("error %v does not carry the HTTP status %d", err, tc.status)
			}
			hint, ok := resilience.RetryAfter(err)
			if tc.hint > 0 && (!ok || hint != tc.hint) {
				t.Fatalf("RetryAfter = %v/%v, want %v", hint, ok, tc.hint)
			}
			if tc.hint == 0 && ok {
				t.Fatalf("unexpected retry hint %v on %d", hint, tc.status)
			}
		})
	}
}

// TestClientRetryHonorsRetryAfter drives a client with a retry policy
// against a server that sheds twice with Retry-After before accepting, and
// checks (a) the call eventually succeeds without caller-side plumbing and
// (b) every backoff sleep is at least the server's advertised wait.
func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			daemon.Error(w, http.StatusTooManyRequests, "shed")
			return
		}
		daemon.WriteJSON(w, http.StatusOK, &Request{ID: "r-1", Status: StatusDone})
	}))
	defer srv.Close()

	var slept []time.Duration
	c := &Client{
		BaseURL: srv.URL,
		Retry: resilience.Policy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		},
	}
	req, err := c.GetCtx(context.Background(), "r-1")
	if err != nil {
		t.Fatal(err)
	}
	if req.Status != StatusDone {
		t.Fatalf("status = %s, want done", req.Status)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2: %v", len(slept), slept)
	}
	for i, d := range slept {
		if d < 3*time.Second {
			t.Fatalf("sleep %d = %v, shorter than the server's Retry-After of 3s", i, d)
		}
	}
}

// TestClientRetryStopsOnPermanent checks a 4xx aborts the retry loop on
// the first attempt: repetition cannot fix a malformed request.
func TestClientRetryStopsOnPermanent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		daemon.Error(w, http.StatusBadRequest, "unknown analysis")
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Retry: resilience.Policy{MaxAttempts: 5,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }}}
	if _, err := c.SubmitCtx(context.Background(), "NOPE", "alice", "", ModelSpec{}); err == nil {
		t.Fatal("error expected")
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried: %d calls", calls.Load())
	}
}

// TestClientSendsBudgetHeader checks a context deadline crosses the wire
// as a relative millisecond budget, and that its absence sends nothing.
func TestClientSendsBudgetHeader(t *testing.T) {
	var header atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(BudgetHeader))
		daemon.WriteJSON(w, http.StatusOK, &Request{ID: "r-1"})
	}))
	defer srv.Close()

	// The injected clock is pinned to a snapshot of the real one: the
	// context deadline must be in the real future for the transport, while
	// the budget arithmetic stays exact against the pinned instant.
	base := time.Now()
	c := &Client{BaseURL: srv.URL, Now: func() time.Time { return base }}
	ctx, cancel := context.WithDeadline(context.Background(), base.Add(1500*time.Millisecond))
	defer cancel()
	if _, err := c.GetCtx(ctx, "r-1"); err != nil {
		t.Fatal(err)
	}
	got, err := resilience.DecodeBudget(header.Load().(string))
	if err != nil {
		t.Fatalf("budget header %q: %v", header.Load(), err)
	}
	if got != 1500*time.Millisecond {
		t.Fatalf("budget = %v, want 1.5s", got)
	}

	if _, err := c.GetCtx(context.Background(), "r-1"); err != nil {
		t.Fatal(err)
	}
	if h := header.Load().(string); h != "" {
		t.Fatalf("deadline-free call sent budget header %q", h)
	}
}
