package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"partita/internal/journal"
)

// Content addresses of the bodies below without a "parallelism" field,
// as computed before the field was ignored. They must never move: they
// name results in existing caches and journals.
const (
	goldenSelectKey = "bd18e44118da7b2eaac826526c10f05053c07510a7ab24d8047b01d598653a12"
	goldenEditKey   = "5b5c10f51366f1f6b91435ee773837766e717b7059af5c981cf66401426a81a8"
	goldenBatchKey  = "b:4580e821753fc6965e13b721fd5db1c9"
)

// withParallelism adds "parallelism": 4 to a JSON object body.
func withParallelism(body string) string {
	return strings.TrimSuffix(body, "}") + `,"parallelism":4}`
}

// postKey posts body to path and returns the "key" of the JSON reply,
// failing the test on any status but 200 or 202.
func postKey(t *testing.T, url, body string) (id, key string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct{ ID, Key, Error string }
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s %s: %d %s", url, body, resp.StatusCode, view.Error)
	}
	return view.ID, view.Key
}

// TestParallelismFieldIgnored pins the wire contract of the deprecated
// "parallelism" field: select, edit, and batch bodies carrying it are
// accepted, and each gets the same content address as the same body
// without it — the address the daemon has always given that body.
func TestParallelismFieldIgnored(t *testing.T) {
	const (
		selectBody = `{"kind":"select","workload":"gsm","requiredGain":4482}`
		editBody   = `{"edits":[{"required":5000}]}`
		batchBody  = `{"defaults":{"workload":"gsm"},"points":[{"requiredGain":4482},{"requiredGain":6000}]}`
		// The batch also carries the field on a point, not only the defaults.
		batchWithField = `{"defaults":{"workload":"gsm","parallelism":4},"points":[{"requiredGain":4482,"parallelism":4},{"requiredGain":6000}]}`
	)
	for _, tc := range []struct {
		name                    string
		selectReq, editReq, bat string
	}{
		{"without", selectBody, editBody, batchBody},
		{"with", withParallelism(selectBody), withParallelism(editBody), batchWithField},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 2})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			id, key := postKey(t, ts.URL+"/v1/jobs", tc.selectReq)
			if key != goldenSelectKey {
				t.Errorf("select key %s, want %s", key, goldenSelectKey)
			}
			job, ok := s.Job(id)
			if !ok {
				t.Fatalf("job %s not tracked", id)
			}
			waitDone(t, job)
			if _, key := postKey(t, ts.URL+"/v1/jobs/"+id+"/edits", tc.editReq); key != goldenEditKey {
				t.Errorf("edit key %s, want %s", key, goldenEditKey)
			}
			if _, key := postKey(t, ts.URL+"/v1/batches", tc.bat); key != goldenBatchKey {
				t.Errorf("batch key %s, want %s", key, goldenBatchKey)
			}
		})
	}
}

// TestJournalReplaysParallelismField: a journal written by a daemon
// that still honoured "parallelism" replays, and the job runs to done.
func TestJournalReplaysParallelismField(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	jnl, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := json.RawMessage(`{"id":"j000001","key":"` + goldenSelectKey +
		`","spec":{"kind":"select","workload":"gsm","requiredGain":4482,"options":{},"parallelism":4}}`)
	if _, err := jnl.Append(recSubmit, "j000001", rec); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdownServer(t, s)
	if got := s.Recovery().JobsRequeued; got != 1 {
		t.Fatalf("requeued = %d, want 1", got)
	}
	job, ok := s.Job("j000001")
	if !ok {
		t.Fatal("journaled job not restored")
	}
	waitDone(t, job)
	if res := job.Result(); res == nil || res.Selection == nil || !res.Selection.Solved() {
		t.Fatalf("replayed job result: %+v", job.View())
	}
	if _, ok := s.CachedResult(goldenSelectKey); !ok {
		t.Error("replayed result not cached under its journaled key")
	}
}
