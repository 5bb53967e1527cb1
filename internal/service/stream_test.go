package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"partita/internal/faults"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSEFrames parses frames off an SSE body until maxFrames data
// frames arrived or the stream ends.
func readSSEFrames(t testing.TB, body io.Reader, maxFrames int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.data != "" {
				frames = append(frames, cur)
				if len(frames) >= maxFrames {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id:"):
			cur.id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "event:"):
			cur.event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			cur.data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	return frames
}

// streamGet opens the events endpoint as an SSE consumer.
func streamGet(t testing.TB, base, id string, lastEventID uint64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/batches/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func postBatch(t testing.TB, base string, spec BatchSpec) (BatchView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v BatchView
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode batch view: %v (%s)", err, raw)
		}
	}
	return v, resp
}

func TestSSEStreamOrderingAndTermination(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, resp := postBatch(t, ts.URL, batchSpec(400, 800, 1200, 1600))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	stream := streamGet(t, ts.URL, v.ID, 0)
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	frames := readSSEFrames(t, stream.Body, 1000)
	if len(frames) == 0 {
		t.Fatal("no frames")
	}

	// IDs strictly increase, every frame's payload id matches its id:
	// field, and the summary is the final frame — the stream terminated
	// because the server closed it after the terminal event.
	last := uint64(0)
	points := map[int]bool{}
	for i, f := range frames {
		var ev BatchEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d: %v (%s)", i, err, f.data)
		}
		if f.id != fmt.Sprint(ev.ID) {
			t.Fatalf("frame %d: id field %q != payload id %d", i, f.id, ev.ID)
		}
		if f.event != ev.Type {
			t.Fatalf("frame %d: event field %q != payload type %q", i, f.event, ev.Type)
		}
		if ev.ID <= last {
			t.Fatalf("frame %d: id %d not increasing past %d", i, ev.ID, last)
		}
		last = ev.ID
		switch ev.Type {
		case EventPoint:
			if points[ev.Point] {
				t.Fatalf("point %d completed twice", ev.Point)
			}
			points[ev.Point] = true
			if ev.Result == nil || ev.Result.Selection == nil {
				t.Fatalf("point event without result: %+v", ev)
			}
		case EventSummary:
			if i != len(frames)-1 {
				t.Fatalf("summary at frame %d of %d, want last", i, len(frames))
			}
			if ev.Summary == nil || ev.Summary.Total != 4 {
				t.Fatalf("bad summary: %+v", ev.Summary)
			}
		}
	}
	if len(points) != 4 {
		t.Fatalf("saw %d point completions, want 4", len(points))
	}
}

func TestLongPollFallbackDeliversIdenticalEvents(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postBatch(t, ts.URL, batchSpec(300, 600, 900))
	b, ok := s.Batch(v.ID)
	if !ok {
		t.Fatal("batch not tracked")
	}
	waitBatch(t, b)

	// SSE view of the full log.
	stream := streamGet(t, ts.URL, v.ID, 0)
	frames := readSSEFrames(t, stream.Body, 1000)
	stream.Body.Close()

	// Long-poll view: page through ?after until done.
	var polled []BatchEvent
	after := uint64(0)
	for {
		resp, err := http.Get(ts.URL + "/v1/batches/" + v.ID + "/events?after=" + strconv.FormatUint(after, 10))
		if err != nil {
			t.Fatal(err)
		}
		var page eventPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		polled = append(polled, page.Events...)
		if len(page.Events) > 0 {
			after = page.NextAfter
		}
		if page.Done && len(page.Events) == 0 {
			break
		}
	}

	if len(polled) != len(frames) {
		t.Fatalf("long-poll delivered %d events, SSE %d", len(polled), len(frames))
	}
	for i, f := range frames {
		var ev BatchEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		pj, _ := json.Marshal(polled[i])
		sj, _ := json.Marshal(ev)
		if !bytes.Equal(pj, sj) {
			t.Fatalf("event %d differs:\nlong-poll: %s\nsse:       %s", i, pj, sj)
		}
	}
}

func TestSSEResumeWithLastEventID(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postBatch(t, ts.URL, batchSpec(250, 500, 750, 1000))
	b, _ := s.Batch(v.ID)
	waitBatch(t, b)

	// First connection reads two frames and drops.
	first := streamGet(t, ts.URL, v.ID, 0)
	head := readSSEFrames(t, first.Body, 2)
	first.Body.Close()
	if len(head) != 2 {
		t.Fatalf("head frames = %d", len(head))
	}
	lastID, err := strconv.ParseUint(head[1].id, 10, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Reconnect with Last-Event-ID: the tail must continue exactly after
	// the last delivered event, no gaps, no replays.
	second := streamGet(t, ts.URL, v.ID, lastID)
	tail := readSSEFrames(t, second.Body, 1000)
	second.Body.Close()
	if len(tail) == 0 {
		t.Fatal("no tail frames after resume")
	}
	var firstTail BatchEvent
	if err := json.Unmarshal([]byte(tail[0].data), &firstTail); err != nil {
		t.Fatal(err)
	}
	if firstTail.ID != lastID+1 {
		t.Fatalf("resume started at id %d, want %d", firstTail.ID, lastID+1)
	}
	var lastTail BatchEvent
	if err := json.Unmarshal([]byte(tail[len(tail)-1].data), &lastTail); err != nil {
		t.Fatal(err)
	}
	if lastTail.Type != EventSummary {
		t.Fatalf("resumed stream ended with %q, want summary", lastTail.Type)
	}
	all, _, _ := b.eventsAfter(0)
	if got, want := len(head)+len(tail), len(all); got != want {
		t.Fatalf("head+tail = %d frames, log holds %d", got, want)
	}
}

func TestDrainTerminatesStreamsWithEndEvent(t *testing.T) {
	// Long enough to pin the worker while the drain fires, short enough
	// that shutdown (which waits the stall out) stays inside the budget.
	inj, err := faults.Parse("seed=3,solver.stall=1,solver.stall.delay=2s")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Faults: inj})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pin the worker on a stalling job, then open a stream on a batch
	// that will never finish before the drain.
	if _, err := s.Submit(selectSpec(42)); err != nil {
		t.Fatal(err)
	}
	v, _ := postBatch(t, ts.URL, batchSpec(100, 200))

	stream := streamGet(t, ts.URL, v.ID, 0)
	defer stream.Body.Close()

	done := make(chan []sseFrame, 1)
	go func() {
		// Read until the server closes the connection.
		done <- readSSEFrames(t, stream.Body, 1000)
	}()
	time.Sleep(50 * time.Millisecond) // let the stream subscribe
	s.BeginDrain()

	select {
	case frames := <-done:
		if len(frames) == 0 {
			t.Fatal("stream closed with no frames at all")
		}
		end := frames[len(frames)-1]
		if end.event != EventEnd {
			t.Fatalf("terminal frame event %q, want %q (frames: %+v)", end.event, EventEnd, frames)
		}
		if !strings.Contains(end.data, ReasonDraining) {
			t.Fatalf("end frame data %q does not name the drain", end.data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate on drain")
	}
	// The stalled solve observes the drain deadline and unwinds; the
	// server shuts down within the test budget.
	shutdownServer(t, s)
}

func TestBatchHTTPStatusCodes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatchPoints: 3, MaxBatchBytes: 64 << 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Oversized point count: 413.
	_, resp := postBatch(t, ts.URL, batchSpec(1, 2, 3, 4))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("too many points: status %d, want 413", resp.StatusCode)
	}

	// Oversized body: 413 before any validation runs.
	big := batchSpec(1)
	big.Defaults.Source = testSource + strings.Repeat("// padding\n", 20000)
	_, resp = postBatch(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// Malformed point: 400 naming the offending index.
	bad := batchSpec(10, 20)
	bad.Points[1].RequiredGain = -1
	body, _ := json.Marshal(bad)
	r, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed point: status %d, want 400", r.StatusCode)
	}
	if !strings.Contains(string(raw), "batch point 1") {
		t.Errorf("error does not name the offending index: %s", raw)
	}

	// Unknown batch: 404 on both snapshot and events.
	for _, path := range []string{"/v1/batches/nope", "/v1/batches/nope/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, r.StatusCode)
		}
	}
}

func TestBatchQueueFullHTTP429WithRetryAfter(t *testing.T) {
	inj, err := faults.Parse("seed=7,solver.stall=1,solver.stall.delay=400ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Faults: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(selectSpec(10)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.busy.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the stalling job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(selectSpec(20)); err != nil {
		t.Fatal(err)
	}
	_, resp := postBatch(t, ts.URL, batchSpec(30))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestBatchProgressEventsCarryIncumbents(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The GSM instance is big enough that the search installs improving
	// incumbents.
	spec := BatchSpec{
		Defaults: JobSpec{Workload: "gsm"},
		Points:   []BatchPoint{{RequiredGain: 10000}, {RequiredGain: 14000}},
	}
	v, _ := postBatch(t, ts.URL, spec)
	b, _ := s.Batch(v.ID)
	waitBatch(t, b)

	evs, _, _ := b.eventsAfter(0)
	progress := 0
	for _, ev := range evs {
		if ev.Type != EventProgress {
			continue
		}
		progress++
		if ev.Progress == nil || ev.Progress.IncumbentArea <= 0 {
			t.Fatalf("progress event without incumbent: %+v", ev)
		}
		if ev.Point < 0 || ev.Point >= 2 {
			t.Fatalf("progress event for out-of-range point %d", ev.Point)
		}
	}
	if progress == 0 {
		t.Fatal("no progress events: solved points must stream their incumbents")
	}
}
