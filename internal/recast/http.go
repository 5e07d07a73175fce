package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"daspos/internal/daemon"
	"daspos/internal/resilience"
)

// The HTTP pieces the one front door (Server.Handler, server.go) and its
// Go client share. Experiment-internal routes require the header
// "X-Recast-Role: experiment" — a stand-in for the experiment's real
// authentication, keeping the "closed system" boundary visible in the API.

// roleHeader gates experiment-internal endpoints.
const (
	roleHeader     = "X-Recast-Role"
	roleExperiment = "experiment"
)

func (s *Service) experimentOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(roleHeader) != roleExperiment {
			daemon.Error(w, http.StatusForbidden, "experiment role required")
			return
		}
		next(w, r)
	}
}

// submitBody is the POST /requests payload.
type submitBody struct {
	Analysis   string    `json:"analysis"`
	Requester  string    `json:"requester"`
	Motivation string    `json:"motivation,omitempty"`
	Model      ModelSpec `json:"model"`
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	req, err := s.Get(r.PathValue("id"))
	if err != nil {
		daemon.Error(w, http.StatusNotFound, err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusOK, req)
}

// statusFor maps a ledger error to its HTTP status: an unknown request is
// 404, a transition the request's state forbids is 409, and anything else
// (a journal that cannot record the mutation) is the server's fault.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNoRequest):
		return http.StatusNotFound
	case errors.Is(err, ErrWrongState), errors.Is(err, ErrNotApproved):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// DefaultClientTimeout bounds each front-end call of the default
// transport: long enough for a synchronous back-end run, short enough that
// a hung service cannot wedge a requester forever.
const DefaultClientTimeout = 30 * time.Second

// Client is a Go client for the front end, as a requester or as the
// experiment (set Experiment to send the role header). Every call is one
// HTTP exchange, under DefaultClientTimeout unless a custom HTTP client is
// supplied, and accepts a context for caller-side cancellation. It does
// not retry: a failure comes back classified, with the server's
// Retry-After as its hint, for the caller to act on. A context deadline
// also travels to the server as a relative budget header, so the service
// can shed or abandon work the caller will never see.
type Client struct {
	BaseURL string
	// HTTP overrides the transport entirely; when set, the timeout is the
	// caller's responsibility.
	HTTP       *http.Client
	Experiment bool
	// Now is the clock used to measure the remaining context budget for
	// the deadline header. Nil means the wall clock.
	Now func() time.Time
}

func (c *Client) clock() func() time.Time {
	if c.Now != nil {
		return c.Now
	}
	return time.Now
}

// HTTPError is a front-end response with status >= 400, classified for
// the resilience taxonomy: 429 and 5xx are transient (the service said
// "not now" or is in trouble), other 4xx are permanent (the request
// itself is wrong and repetition cannot fix it).
type HTTPError struct {
	Status int
	Msg    string
	// RetryAfter is the server's own back-off advice, when it sent one.
	RetryAfter time.Duration
}

// Error renders the failure.
func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("recast: %s (%d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("recast: status %d", e.Status)
}

// Transient reports whether retrying can help.
func (e *HTTPError) Transient() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// classify wraps the error for the resilience taxonomy, attaching the
// server's Retry-After as a hint on transient failures.
func (e *HTTPError) classify() error {
	if e.Transient() {
		return resilience.WithRetryAfter(resilience.MarkTransient(e), e.RetryAfter)
	}
	return resilience.MarkPermanent(e)
}

// parseRetryAfter reads a Retry-After header (delta-seconds form).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// httpClient returns the transport, defaulting to one with a timeout —
// the bare http.DefaultClient has none, and a stuck front end would hang
// the requester with it.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: DefaultClientTimeout}
}

// do issues a single HTTP exchange. Failures come back classified:
// network errors and 429/5xx responses transient (with the server's
// Retry-After as the backoff hint), other 4xx permanent.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	if ctx == nil {
		ctx = context.Background()
	}
	hc := c.httpClient()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return resilience.MarkPermanent(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return resilience.MarkPermanent(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Experiment {
		req.Header.Set(roleHeader, roleExperiment)
	}
	// A context deadline becomes a relative budget header, so the server
	// sheds work it cannot finish in time instead of computing results
	// nobody will read.
	now := c.clock()
	if budget, ok := resilience.RemainingBudget(ctx, now()); ok {
		req.Header.Set(BudgetHeader, resilience.EncodeBudget(budget))
	}
	resp, err := hc.Do(req)
	if err != nil {
		// The wire failed before the server answered: connection refused,
		// reset, timeout. All heal-on-retry territory.
		return resilience.MarkTransient(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return resilience.MarkTransient(err)
	}
	if resp.StatusCode >= 400 {
		herr := &HTTPError{
			Status:     resp.StatusCode,
			Msg:        fmt.Sprintf("%s %s", method, path),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			herr.Msg = fmt.Sprintf("%s %s: %s", method, path, e.Error)
		}
		return herr.classify()
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resilience.MarkPermanent(err)
	}
	return nil
}

// SubmitCtx files a request and returns its server-side record.
func (c *Client) SubmitCtx(ctx context.Context, analysis, requester, motivation string, model ModelSpec) (*Request, error) {
	var out Request
	err := c.do(ctx, http.MethodPost, "/requests", submitBody{
		Analysis: analysis, Requester: requester, Motivation: motivation, Model: model,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// GetCtx polls a request.
func (c *Client) GetCtx(ctx context.Context, id string) (*Request, error) {
	var out Request
	if err := c.do(ctx, http.MethodGet, "/requests/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ApproveCtx approves a request (experiment role).
func (c *Client) ApproveCtx(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/requests/"+id+"/approve", nil, nil)
}
