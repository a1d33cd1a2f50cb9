package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// stubEndpoint is one scripted cluster member.
type stubEndpoint struct {
	srv     *httptest.Server
	submits atomic.Int64
	// mode: "accept", "reject429", "reject503", or "down".
	mode atomic.Value
}

func newStubEndpoint(t *testing.T, id string) *stubEndpoint {
	t.Helper()
	e := &stubEndpoint{}
	e.mode.Store("accept")
	e.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			e.submits.Add(1)
			switch e.mode.Load().(string) {
			case "reject429":
				w.WriteHeader(http.StatusTooManyRequests)
			case "reject503":
				w.WriteHeader(http.StatusServiceUnavailable)
			default:
				writeStatus(w, http.StatusAccepted, serve.Status{
					ID: "j1@" + id, State: serve.StateQueued, Node: id,
				})
			}
		case r.Method == http.MethodGet:
			writeStatus(w, http.StatusOK, serve.Status{
				ID: "j1@" + id, State: serve.StateDone, Node: id,
			})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(e.srv.Close)
	return e
}

func writeStatus(w http.ResponseWriter, code int, st serve.Status) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(st)
}

func TestClusterClientValidation(t *testing.T) {
	if _, err := NewClusterClient(nil, nil); err == nil {
		t.Error("empty endpoint list accepted")
	}
	cc, err := NewClusterClient([]string{"http://a", "http://b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.Endpoints(); len(got) != 2 || got[0] != "http://a" {
		t.Errorf("Endpoints = %v", got)
	}
}

// TestClusterClientRotation: successive submissions start from a
// rotating cursor, spreading entry load across healthy endpoints.
func TestClusterClientRotation(t *testing.T) {
	a, b, c := newStubEndpoint(t, "a"), newStubEndpoint(t, "b"), newStubEndpoint(t, "c")
	cc, err := NewClusterClient([]string{a.srv.URL, b.srv.URL, c.srv.URL}, &Backoff{NoJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, _, err := cc.Submit(context.Background(), serve.JobSpec{Circuit: "ex5p"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*stubEndpoint{a, b, c} {
		if got := e.submits.Load(); got != 3 {
			t.Errorf("endpoint saw %d submissions, want 3 (even rotation)", got)
		}
	}
}

// TestClusterClientFailover: a 429 or unreachable endpoint rotates to
// the next without consuming the backoff budget.
func TestClusterClientFailover(t *testing.T) {
	a, b := newStubEndpoint(t, "a"), newStubEndpoint(t, "b")
	a.mode.Store("reject429")
	fs := &fakeSleeper{failAt: -1}
	cc, err := NewClusterClient([]string{a.srv.URL, b.srv.URL},
		&Backoff{Base: time.Millisecond, NoJitter: true, Retries: 2, sleep: fs.sleep})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		st, ep, err := cc.Submit(context.Background(), serve.JobSpec{Circuit: "ex5p"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Node != "b" || ep.BaseURL != b.srv.URL {
			t.Fatalf("submission landed on %q via %q, want the healthy endpoint", st.Node, ep.BaseURL)
		}
	}
	if fs.count() != 0 {
		t.Errorf("%d backoff sleeps despite a healthy endpoint, want 0", fs.count())
	}
}

// TestClusterClientAllQueueFull: when every endpoint is saturated the
// client backs off between full rounds, then succeeds when one drains.
func TestClusterClientAllQueueFull(t *testing.T) {
	a, b := newStubEndpoint(t, "a"), newStubEndpoint(t, "b")
	a.mode.Store("reject429")
	b.mode.Store("reject429")
	fs := &fakeSleeper{failAt: -1}
	// Drain endpoint b during the second backoff round. It happens
	// inside the sleep, not in a polling goroutine: the fake sleeps
	// return at once, so all retries could finish before that ran.
	sleep := func(ctx context.Context, d time.Duration) error {
		err := fs.sleep(ctx, d)
		if fs.count() == 2 {
			b.mode.Store("accept")
		}
		return err
	}
	cc, err := NewClusterClient([]string{a.srv.URL, b.srv.URL},
		&Backoff{Base: time.Millisecond, NoJitter: true, Retries: 8, sleep: sleep})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := cc.Submit(context.Background(), serve.JobSpec{Circuit: "ex5p"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "b" {
		t.Errorf("landed on %q, want b", st.Node)
	}
	if fs.count() < 2 {
		t.Errorf("%d backoff rounds, want >= 2", fs.count())
	}
}

// TestClusterClientExhausted: persistent saturation everywhere
// surfaces an error naming ErrQueueFull after the retry budget.
func TestClusterClientExhausted(t *testing.T) {
	a := newStubEndpoint(t, "a")
	a.mode.Store("reject429")
	fs := &fakeSleeper{failAt: -1}
	cc, err := NewClusterClient([]string{a.srv.URL},
		&Backoff{Base: time.Millisecond, NoJitter: true, Retries: 3, sleep: fs.sleep})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cc.Submit(context.Background(), serve.JobSpec{Circuit: "ex5p"}); err == nil {
		t.Fatal("submit succeeded against a saturated cluster")
	}
	if got := a.submits.Load(); got != 4 {
		t.Errorf("%d attempts, want 4 (initial round + 3 retries)", got)
	}
}

// TestClusterClientDownEndpoint: an unreachable endpoint (connection
// refused) fails over without backoff and without failing the call.
func TestClusterClientDownEndpoint(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	b := newStubEndpoint(t, "b")
	cc, err := NewClusterClient([]string{deadURL, b.srv.URL}, &Backoff{NoJitter: true})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := cc.Submit(context.Background(), serve.JobSpec{Circuit: "ex5p"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "b" {
		t.Errorf("landed on %q, want b", st.Node)
	}
	// Get fails over too.
	if _, err := cc.Get(context.Background(), nil, "j1@b"); err != nil {
		t.Errorf("Get with one endpoint down: %v", err)
	}
}
