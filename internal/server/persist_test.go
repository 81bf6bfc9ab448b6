package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repliflow/internal/core"
	"repliflow/internal/store"
)

// newDiskServer builds a server over a DiskStore in dir, returning the
// server, its test listener and the store (the caller restarts by
// closing all three and calling it again on the same dir).
func newDiskServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, *store.DiskStore) {
	t.Helper()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := New(cfg)
	ts := httptest.NewServer(s)
	return s, ts, st
}

// drain closes the server and waits for its job goroutines to persist
// their final state, then closes the listener and store — the orderly
// half of a restart (the crash half is cmd/wfserve's kill -9 test).
func drain(t *testing.T, s *Server, ts *httptest.Server, st *store.DiskStore) {
	t.Helper()
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.active() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ts.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResumesParetoJob: a pareto job interrupted by shutdown is
// re-queued in the store, and a new server over the same directory
// adopts it, re-runs it to completion, and never lets the observable
// front shrink below what the first incarnation proved.
func TestRestartResumesParetoJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Options: core.Options{MaxExhaustivePipelineProcs: 10}}
	s1, ts1, st1 := newDiskServer(t, dir, cfg)

	body := `{"kind": "pareto", "instance": ` + exactSweepInstance + `}, "timeoutMs": 120000}`
	resp, jr := postJob(t, ts1.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status = %d", resp.StatusCode)
	}
	// Wait for the sweep to prove at least one point (or finish outright
	// on a fast machine — the restart assertions hold either way).
	mid := pollJob(t, ts1.URL, jr.ID, "first front point", func(j JobResponse) bool {
		return j.Progress.Points >= 1 || terminal(j)
	})
	drain(t, s1, ts1, st1)

	s2, ts2, st2 := newDiskServer(t, dir, cfg)
	defer drain(t, s2, ts2, st2)
	done := pollJob(t, ts2.URL, jr.ID, "terminal after restart", terminal)
	if done.Status != JobStatusDone {
		t.Fatalf("resumed job finished %q (error %+v), want done", done.Status, done.Error)
	}
	if len(done.Front) == 0 || len(done.Front) < mid.Progress.Points {
		t.Fatalf("front shrank across restart: %d points, had %d before shutdown",
			len(done.Front), mid.Progress.Points)
	}
	// The resumed run was counted, and new ids never collide with
	// recovered ones.
	resp2, jr2 := postJob(t, ts2.URL, fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit: status = %d", resp2.StatusCode)
	}
	if jr2.ID == jr.ID {
		t.Fatalf("restarted server reissued job id %s", jr.ID)
	}
}

// TestReaperAdoptsExpiredLease: a non-terminal record whose lease has
// expired — orphaned by a dead owner — is adopted by the reaper and run
// to completion, without a restart.
func TestReaperAdoptsExpiredLease(t *testing.T) {
	st := store.Mem()
	s, ts := newTestServer(t, Config{Store: st, LeaseTTL: 60 * time.Millisecond})
	defer s.Close()

	req := fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2)
	orphan := store.JobRecord{
		ID:        "job-77",
		Kind:      "solve",
		Status:    JobStatusQueued,
		Client:    "tenant-a",
		Request:   json.RawMessage(req),
		CreatedMs: time.Now().UnixMilli(),
		Lease:     &store.Lease{Owner: "dead-process", ExpiresMs: time.Now().Add(-time.Second).UnixMilli()},
	}
	if err := st.PutJob(orphan); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, ts.URL, "job-77", "adopted and finished", terminal)
	if done.Status != JobStatusDone || done.Solution == nil {
		t.Fatalf("adopted job = %+v, want done with a solution", done)
	}
	if got := s.storeRecovered.Load(); got == 0 {
		t.Error("recovered-jobs counter not incremented")
	}
	// The sequence advanced past the adopted id.
	resp, jr := postJob(t, ts.URL, req)
	if resp.StatusCode != http.StatusAccepted || jr.ID != "job-78" {
		t.Errorf("next submission = %q (status %d), want job-78", jr.ID, resp.StatusCode)
	}
}

// TestReaperLeavesLiveLeasesAlone: a non-terminal record under an
// unexpired foreign lease is not adopted mid-flight.
func TestReaperLeavesLiveLeasesAlone(t *testing.T) {
	st := store.Mem()
	s, _ := newTestServer(t, Config{Store: st, LeaseTTL: 60 * time.Millisecond})
	defer s.Close()

	req := fmt.Sprintf(`{"kind": "solve", "instance": %s}`, section2)
	live := store.JobRecord{
		ID:        "job-500",
		Kind:      "solve",
		Status:    JobStatusRunning,
		Request:   json.RawMessage(req),
		CreatedMs: time.Now().UnixMilli(),
		Lease:     &store.Lease{Owner: "replica-2", ExpiresMs: time.Now().Add(time.Hour).UnixMilli()},
	}
	if err := st.PutJob(live); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // several reaper ticks
	rec, ok, err := st.GetJob("job-500")
	if err != nil || !ok {
		t.Fatalf("record vanished: ok=%v err=%v", ok, err)
	}
	if rec.Lease == nil || rec.Lease.Owner != "replica-2" {
		t.Fatalf("live lease stolen: %+v", rec.Lease)
	}
}

// TestSolveResultsSharedThroughStore: an NP-hard solve on one server
// incarnation is answered from the persisted result store by the next,
// engine cache cold.
func TestSolveResultsSharedThroughStore(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, st1 := newDiskServer(t, dir, Config{})
	resp, body := postJSON(t, ts1.URL+"/v1/solve", slowInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status = %d, body %s", resp.StatusCode, body)
	}
	var first SolveResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if s1.storeWrites.Load() == 0 {
		t.Fatal("NP-hard solve not written through to the store")
	}
	drain(t, s1, ts1, st1)

	s2, ts2, st2 := newDiskServer(t, dir, Config{})
	defer drain(t, s2, ts2, st2)
	resp, body = postJSON(t, ts2.URL+"/v1/solve", slowInstance)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve: status = %d, body %s", resp.StatusCode, body)
	}
	if hits := s2.storeResultHits.Load(); hits != 1 {
		t.Fatalf("store result hits = %d, want 1", hits)
	}
	var second SolveResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first.Solution)
	b, _ := json.Marshal(second.Solution)
	if string(a) != string(b) {
		t.Fatalf("stored solution drifted:\nfirst  %s\nsecond %s", a, b)
	}
	// Polynomial solves bypass the store entirely.
	misses := s2.storeResultMisses.Load()
	if resp, _ := postJSON(t, ts2.URL+"/v1/solve", section2); resp.StatusCode != http.StatusOK {
		t.Fatalf("polynomial solve failed: %d", resp.StatusCode)
	}
	if got := s2.storeResultMisses.Load(); got != misses {
		t.Error("polynomial solve consulted the result store")
	}
}

// TestStoreMetricsExposed: the wfserve_store_* series appear on
// /metrics.
func TestStoreMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, name := range []string{
		"wfserve_store_jobs", "wfserve_store_results",
		"wfserve_store_writes_total", "wfserve_store_errors_total",
		"wfserve_store_result_hits_total", "wfserve_store_result_misses_total",
		"wfserve_store_recovered_jobs_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// renewalBlockingStore holds the first lease renewal of a running job
// that has already proven a front point until release is closed, and
// slows every point append so a sweep spans several renewal ticks.
type renewalBlockingStore struct {
	store.Store
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *renewalBlockingStore) PutJob(rec store.JobRecord) error {
	// Only a renewal writes a running record with a front: the other
	// writes of a fresh job carry no point yet or are terminal.
	if rec.Status == JobStatusRunning && len(rec.Front) > 0 {
		first := false
		b.once.Do(func() { first = true })
		if first {
			close(b.entered)
			<-b.release
		}
	}
	return b.Store.PutJob(rec)
}

func (b *renewalBlockingStore) AppendFrontPoint(id string, point json.RawMessage) error {
	time.Sleep(20 * time.Millisecond)
	return b.Store.AppendFrontPoint(id, point)
}

// TestLeaseRenewalNeverOverwritesLaterState: a lease renewal whose store
// write stalls while the job keeps proving points and finishes must not
// land over the later writes. The final stored record is terminal and
// holds every front point exactly once.
func TestLeaseRenewalNeverOverwritesLaterState(t *testing.T) {
	st := &renewalBlockingStore{Store: store.Mem(), entered: make(chan struct{}), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Store: st, LeaseTTL: 30 * time.Millisecond})
	body := `{"kind": "pareto", "instance": {
		"pipeline": {"weights": [14, 4, 2, 4, 7, 3]},
		"platform": {"speeds": [3, 2, 1, 1]},
		"allowDataParallel": true}}`
	resp, jr := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status = %d", resp.StatusCode)
	}
	select {
	case <-st.entered:
	case <-time.After(20 * time.Second):
		close(st.release)
		t.Fatal("no lease renewal ran while the sweep was proving points")
	}
	// Give the job every chance to move on while the renewal is stuck.
	time.Sleep(150 * time.Millisecond)
	close(st.release)

	done := pollJob(t, ts.URL, jr.ID, "terminal", terminal)
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.active() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rec, ok, err := st.GetJob(jr.ID)
	if err != nil || !ok {
		t.Fatalf("stored record: ok=%v err=%v", ok, err)
	}
	if !rec.Terminal() {
		t.Fatalf("stored record is %q after the job finished %q: a stale renewal overwrote it", rec.Status, done.Status)
	}
	stored := jobResponseFromRecord(rec).Front
	if len(done.Front) < 2 || !reflect.DeepEqual(stored, done.Front) {
		t.Fatalf("stored front has %d points, the job proved %d: points lost or duplicated", len(stored), len(done.Front))
	}
}
