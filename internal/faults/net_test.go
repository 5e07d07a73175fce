package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"daspos/internal/resilience"
)

func TestPartitionAndHeal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	host := srv.Listener.Addr().String()

	inj := NewNetInjector(7)
	client := &http.Client{Transport: &Transport{Inj: inj}}

	// Reachable before the partition.
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("pre-partition request: %v", err)
	}
	resp.Body.Close()

	inj.Partition(host)
	_, err = client.Get(srv.URL)
	if err == nil {
		t.Fatal("partitioned request succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partition error does not wrap ErrInjected: %v", err)
	}
	if resilience.Classify(err) != resilience.Transient {
		t.Fatalf("partition error not transient: %v", err)
	}

	// Heal: traffic flows again.
	inj.HealAll()
	resp, err = client.Get(srv.URL)
	if err != nil {
		t.Fatalf("post-heal request: %v", err)
	}
	resp.Body.Close()
}

// TestSlowNodeLatencyDeterminism pins that a fixed seed yields an
// identical latency sequence: the slow-node distribution is replayable.
func TestSlowNodeLatencyDeterminism(t *testing.T) {
	sample := func(seed uint64) []time.Duration {
		inj := NewNetInjector(seed)
		inj.SetSlow("a:1", SlowSpec{Base: time.Millisecond, Jitter: 4 * time.Millisecond})
		var out []time.Duration
		for i := 0; i < 64; i++ {
			out = append(out, inj.Decide("a:1").Latency)
		}
		return out
	}

	a, b := sample(42), sample(42)
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d diverges under the same seed: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Millisecond || a[i] >= 5*time.Millisecond {
			t.Fatalf("latency %d = %v outside [base, base+jitter)", i, a[i])
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("latency sequence is constant; jitter not applied")
	}

	c := sample(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical latency sequence")
	}
}

func TestSlowClearAndHealAll(t *testing.T) {
	inj := NewNetInjector(1)
	inj.SetSlow("a:1", SlowSpec{Base: time.Millisecond})
	if inj.Decide("a:1").Latency == 0 {
		t.Fatal("slow spec ignored")
	}
	inj.ClearSlow("a:1")
	if inj.Decide("a:1").Latency != 0 {
		t.Fatal("ClearSlow did not clear")
	}
	inj.Partition("b:1")
	inj.SetSlow("c:1", SlowSpec{Base: time.Millisecond})
	inj.HealAll()
	if inj.Decide("b:1").Drop || inj.Decide("c:1").Latency != 0 {
		t.Fatal("HealAll left faults behind")
	}
}

func TestStormSynthesizes5xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("storm request reached the server")
	}))
	defer srv.Close()

	inj := NewNetInjector(3).WithErrorRate(1)
	client := &http.Client{Transport: &Transport{Inj: inj}}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("storm should answer, not error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("storm status %d, want 503", resp.StatusCode)
	}
}

func TestCorruptOnTheWireHitsBlobReadsOnly(t *testing.T) {
	payload := []byte("replica bytes that must arrive intact or visibly broken")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	}))
	defer srv.Close()

	inj := NewNetInjector(5).WithCorruptRate(1)
	client := &http.Client{Transport: &Transport{Inj: inj}}

	// A blob read is corrupted...
	resp, err := client.Get(srv.URL + "/v1/blobs/abc123")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) == string(payload) {
		t.Fatal("blob body arrived intact despite corrupt rate 1")
	}

	// ...but control traffic is left alone.
	resp, err = client.Get(srv.URL + "/v1/digests")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != string(payload) {
		t.Fatal("control-plane body was corrupted")
	}
}
