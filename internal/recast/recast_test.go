package recast

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/leshouches"
)

// highMassSearch is the preserved analysis the experiment subscribes.
func highMassSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon search, 20/fb",
		Objects: []leshouches.ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
}

func newFullSimBackend(t testing.TB) *FullSimBackend {
	t.Helper()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 1); err != nil {
		t.Fatal(err)
	}
	return &FullSimBackend{Det: detector.Standard(), CondDB: db, Tag: "t", Run: 1, LuminosityPb: 20000}
}

func newFullSimService(t testing.TB) *Service {
	t.Helper()
	svc := NewService(newFullSimBackend(t))
	if err := svc.Subscribe(Subscription{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon search",
		Record:      highMassSearch(),
	}); err != nil {
		t.Fatal(err)
	}
	return svc
}

func validModel() ModelSpec {
	return ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 7}
}

func TestModelValidation(t *testing.T) {
	if err := validModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ModelSpec{
		{Process: "axion", MassGeV: 100, Events: 10},
		{Process: "zprime", MassGeV: 10, Events: 10},
		{Process: "zprime", MassGeV: 1000, Events: 0},
		{Process: "zprime", MassGeV: 1000, Events: 1 << 30},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}

func TestSubscriptionRules(t *testing.T) {
	svc := newFullSimService(t)
	if err := svc.Subscribe(Subscription{Name: "GPD_2013_DIMUON_HIGHMASS", Record: highMassSearch()}); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if err := svc.Subscribe(Subscription{Name: "", Record: highMassSearch()}); err == nil {
		t.Fatal("nameless subscription accepted")
	}
	if err := svc.Subscribe(Subscription{Name: "X", Record: nil}); err == nil {
		t.Fatal("recordless subscription accepted")
	}
}

func TestLifecycle(t *testing.T) {
	svc := newFullSimService(t)
	req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "test Z' coupling", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if req.Status != StatusSubmitted || req.ID == "" {
		t.Fatalf("submitted: %+v", req)
	}
	// Cannot process before approval.
	if _, err := svc.Process(req.ID); err == nil {
		t.Fatal("unapproved request processed")
	}
	if err := svc.Approve(req.ID); err != nil {
		t.Fatal(err)
	}
	// Cannot approve twice.
	if err := svc.Approve(req.ID); err == nil {
		t.Fatal("double approval accepted")
	}
	done, err := svc.Process(req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("processed: %+v", done)
	}
	res := done.Result
	if res.Generated != 40 || res.BackEnd != "fullsim" {
		t.Fatalf("result: %+v", res)
	}
	if res.Acceptance <= 0 || res.Acceptance > 1 {
		t.Fatalf("acceptance %v", res.Acceptance)
	}
	if res.UpperLimitEvents <= 0 || res.UpperLimitXsecPb <= 0 {
		t.Fatalf("limits: %+v", res)
	}
	if len(res.CutFlow) != 4 || res.CutFlow[0] != 40 {
		t.Fatalf("cutflow: %v", res.CutFlow)
	}
}

// TestRejection: nothing rejects a request any more, but a journal written
// while something did reopens its rejected requests as they were, and none
// of them is processed or approved.
func TestRejection(t *testing.T) {
	dir := t.TempDir()
	line := `{"id":"req-000001","analysis":"GPD_2013_DIMUON_HIGHMASS","requester":"theorist","model":{"process":"zprime","mass_gev":1000,"events":40,"seed":7},"status":"rejected","reason":"model already covered by published limits"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "requests.log"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := newFullSimService(t)
	serveService(t, svc, ServerConfig{JournalDir: dir})
	got, _ := svc.Get("req-000001")
	if got.Status != StatusRejected || got.Reason == "" {
		t.Fatalf("rejected: %+v", got)
	}
	if _, err := svc.Process(got.ID); err == nil {
		t.Fatal("rejected request processed")
	}
	if err := svc.Approve(got.ID); !errors.Is(err, ErrWrongState) {
		t.Fatalf("approving a rejected request: %v, want ErrWrongState", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newFullSimService(t)
	if _, err := svc.Submit("UNKNOWN", "x", "", validModel()); err == nil {
		t.Fatal("unsubscribed analysis accepted")
	}
	if _, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "", "", validModel()); err == nil {
		t.Fatal("anonymous request accepted")
	}
	bad := validModel()
	bad.MassGeV = 1
	if _, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", bad); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := svc.Get("req-999999"); err == nil {
		t.Fatal("phantom request")
	}
}

func TestFullSimAcceptanceScalesWithMass(t *testing.T) {
	// A heavier Z' produces harder muons: acceptance of the high-mass
	// selection must rise steeply from below threshold to above it.
	svc := newFullSimService(t)
	acceptance := func(mass float64) float64 {
		m := validModel()
		m.MassGeV = mass
		m.Events = 60
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			t.Fatal(err)
		}
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result.Acceptance
	}
	low := acceptance(200) // below the 400 GeV mass cut
	high := acceptance(1500)
	if high <= low {
		t.Fatalf("acceptance ordering: m=200 -> %v, m=1500 -> %v", low, high)
	}
	if high < 0.1 {
		t.Fatalf("high-mass acceptance implausibly low: %v", high)
	}
}

// serveHTTP puts svc behind the one front door — a Server over a journal
// directory, workers running — and returns it with a requester's and the
// experiment's client.
func serveHTTP(t *testing.T, svc *Service, cfg ServerConfig) (srv *Server, theorist, experiment *Client) {
	t.Helper()
	srv = serveService(t, svc, cfg)
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	return srv, &Client{BaseURL: hts.URL}, &Client{BaseURL: hts.URL, Experiment: true}
}

func TestHTTPRoundTrip(t *testing.T) {
	srv, theorist, experiment := serveHTTP(t, newFullSimService(t), ServerConfig{})
	ctx := context.Background()
	req, err := theorist.SubmitCtx(ctx, "GPD_2013_DIMUON_HIGHMASS", "theorist@ippp", "Z' at 1 TeV", validModel())
	if err != nil {
		t.Fatal(err)
	}
	// The requester cannot approve: the closed-system boundary.
	if err := theorist.ApproveCtx(ctx, req.ID); err == nil || !strings.Contains(err.Error(), "experiment role") {
		t.Fatalf("role gate breached: %v", err)
	}
	// Approval is what queues the work; nothing ran before it.
	if got, _ := theorist.GetCtx(ctx, req.ID); got.Status != StatusSubmitted {
		t.Fatalf("unapproved request is %s", got.Status)
	}
	if err := experiment.ApproveCtx(ctx, req.ID); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, srv.Service(), req.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("done: %+v", done)
	}
	// The theorist polls and sees only numbers.
	polled, err := theorist.GetCtx(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Result.Acceptance != done.Result.Acceptance {
		t.Fatal("result mismatch between poll and ledger")
	}
}

// TestHTTPErrors pins the status code of every way a call can be wrong:
// unknown request 404, a transition the state forbids 409, a bad
// submission 400, the wrong role 403, a ledger that cannot record 500.
func TestHTTPErrors(t *testing.T) {
	srv, theorist, experiment := serveHTTP(t, newFullSimService(t), ServerConfig{})
	ctx := context.Background()
	pending, err := theorist.SubmitCtx(ctx, "GPD_2013_DIMUON_HIGHMASS", "x", "", validModel())
	if err != nil {
		t.Fatal(err)
	}
	// The parent's journals hold req-000002, rejected.
	parent := filepath.Join("testdata", "parent_journals")
	dir := t.TempDir()
	for _, name := range []string{"requests.log", filepath.Join("queue", "queue.log")} {
		data, err := os.ReadFile(filepath.Join(parent, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stub, _ := newStubService(t, nil)
	reopened := httptest.NewServer(serveService(t, stub, ServerConfig{JournalDir: dir}).Handler())
	t.Cleanup(reopened.Close)

	cases := []struct {
		name string
		call func() error
		want int
	}{
		{"get unknown", func() error { _, err := theorist.GetCtx(ctx, "req-000042"); return err }, http.StatusNotFound},
		{"approve unknown", func() error { return experiment.ApproveCtx(ctx, "req-000042") }, http.StatusNotFound},
		{"approve rejected", func() error {
			return (&Client{BaseURL: reopened.URL, Experiment: true}).ApproveCtx(ctx, "req-000002")
		}, http.StatusConflict},
		{"approve without role", func() error { return theorist.ApproveCtx(ctx, pending.ID) }, http.StatusForbidden},
		{"submit unsubscribed", func() error { _, err := theorist.SubmitCtx(ctx, "GHOST", "x", "", validModel()); return err }, http.StatusBadRequest},
		{"process is not a route", func() error {
			return experiment.do(ctx, http.MethodPost, "/requests/"+pending.ID+"/process", nil, nil)
		}, http.StatusNotFound},
		// Last: closing the request journal makes every mutation a 500.
		{"approve unrecordable", func() error {
			if err := srv.Service().closeJournal(); err != nil {
				t.Fatal(err)
			}
			return experiment.ApproveCtx(ctx, pending.ID)
		}, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		err := tc.call()
		var herr *HTTPError
		if !errors.As(err, &herr) || herr.Status != tc.want {
			t.Errorf("%s: %v, want HTTP %d", tc.name, err, tc.want)
		}
	}
	if got, _ := srv.Service().Get(pending.ID); got.Status != StatusSubmitted {
		t.Fatalf("unrecordable transitions moved the request to %s", got.Status)
	}
}

func TestQueueProcessesApprovedRequests(t *testing.T) {
	srv, theorist, experiment := serveHTTP(t, newFullSimService(t), ServerConfig{Workers: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		m := validModel()
		m.Seed = uint64(i)
		m.Events = 15
		req, err := theorist.SubmitCtx(context.Background(), "GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			t.Fatal(err)
		}
		if err := experiment.ApproveCtx(context.Background(), req.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.ID)
	}
	for _, id := range ids {
		if got := waitTerminal(t, srv.Service(), id); got.Status != StatusDone {
			t.Fatalf("request %s ended %s: %s", id, got.Status, got.Reason)
		}
	}
	// The queue closes each entry just after the ledger records the result.
	for deadline := time.Now().Add(5 * time.Second); srv.Status().Queue.Terminal != len(ids); {
		if time.Now().After(deadline) {
			t.Fatalf("queue never closed out its entries: %+v", srv.Status().Queue)
		}
		time.Sleep(time.Millisecond)
	}
	// A closed front door takes no more work.
	late, err := theorist.SubmitCtx(context.Background(), "GPD_2013_DIMUON_HIGHMASS", "x", "", validModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := experiment.ApproveCtx(context.Background(), late.ID); err == nil {
		t.Fatal("approval after Close accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() *Result {
		svc := newFullSimService(t)
		req, _ := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", validModel())
		_ = svc.Approve(req.ID)
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result
	}
	a, b := run(), run()
	if a.Selected != b.Selected || a.Acceptance != b.Acceptance {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func BenchmarkFullSimRequest(b *testing.B) {
	svc := newFullSimService(b)
	for i := 0; i < b.N; i++ {
		m := validModel()
		m.Events = 10
		m.Seed = uint64(i)
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Process(req.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSimProcess is one back-end run of the size the end-to-end
// benchmark submits (200 events), with nothing around it: no service, no
// journal. Run it with -cpu 2, the least the stage layout is meant for.
// muons runs the benchmark's own record, which reads muons alone and so
// takes the tracker-and-muon half of reconstruction; calorimeter runs one
// that reads the missing momentum and jets, and so the full chain.
func BenchmarkFullSimProcess(b *testing.B) {
	for _, c := range []struct {
		name   string
		record *leshouches.AnalysisRecord
	}{{"muons", highMassSearch()}, {"calorimeter", wMuNuSearch()}} {
		b.Run(c.name, func(b *testing.B) {
			backend := newFullSimBackend(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model := ModelSpec{Process: "zprime", MassGeV: 1000, Events: 200, Seed: uint64(i % 16)}
				if _, err := backend.Process(context.Background(), model, c.record); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestExclusionVerdict(t *testing.T) {
	svc := newFullSimService(t)
	// A huge predicted cross section must be excluded; a tiny one must not.
	verdict := func(xsecPb float64) *Result {
		m := validModel()
		m.Events = 50
		m.CrossSectionPb = xsecPb
		req, err := svc.Submit("GPD_2013_DIMUON_HIGHMASS", "x", "", m)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Approve(req.ID); err != nil {
			t.Fatal(err)
		}
		done, err := svc.Process(req.ID)
		if err != nil {
			t.Fatal(err)
		}
		return done.Result
	}
	big := verdict(1.0) // 1 pb at 20/fb -> thousands of predicted events
	if !big.Excluded || big.PredictedEvents <= big.UpperLimitEvents {
		t.Fatalf("large cross section not excluded: %+v", big)
	}
	small := verdict(1e-7)
	if small.Excluded {
		t.Fatalf("negligible cross section excluded: %+v", small)
	}
	// No cross section: no verdict fields.
	none := verdict(0)
	if none.Excluded || none.PredictedEvents != 0 {
		t.Fatalf("verdict without cross section: %+v", none)
	}
}

func TestMassScan(t *testing.T) {
	svc := newFullSimService(t)
	base := validModel()
	base.Events = 30
	points, err := MassScan(svc, "GPD_2013_DIMUON_HIGHMASS", "theorist", base, []float64{200, 800, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points: %d", len(points))
	}
	// Acceptance must rise across the 400 GeV mass cut.
	if points[2].Result.Acceptance <= points[0].Result.Acceptance {
		t.Fatalf("acceptance not rising with mass: %v -> %v",
			points[0].Result.Acceptance, points[2].Result.Acceptance)
	}
	// A scan against an unsubscribed analysis fails fast.
	if _, err := MassScan(svc, "GHOST", "x", base, []float64{500}); err == nil {
		t.Fatal("scan of unsubscribed analysis succeeded")
	}
}
