package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"partita"
	"partita/internal/apps"
	"partita/internal/imp"
	"partita/internal/selector"
	"partita/internal/service"
)

// The service workload drives an in-process partitad over loopback
// HTTP with the traffic mix below: one client in a closed loop for the
// first half of the window, then an open loop in four steps. The step
// rates are frozen at about 25, 50, 75, and 100% of the capacity two
// closed-loop clients measured on a 2-core host, so the last step sits
// at the edge and a capacity gain has room to show in
// service.max_ok_rate.
var serviceRates = []float64{35, 70, 105, 140}

const (
	// Mix shares: exact selects on a bundled workload at a fresh grid
	// gain (result-cache miss), repeats of a recent spec (cache hit),
	// inline programs from the explore pool (design-cache miss on first
	// use), and portfolio selects, half of them interactive edits.
	shareSelect, shareRepeat, shareInline = 0.45, 0.20, 0.20
	// serviceGap is the portfolio jobs' acceptability gap.
	serviceGap = 0.05
	// latLimit and backlogLimit decide whether a step is served: tail
	// latency within 250 ms, and a step-end backlog of at most a quarter
	// second's arrivals.
	latLimit     = 250 * time.Millisecond
	backlogLimit = 0.25
	// mixSeed fixes the multiset of jobs every run sends.
	mixSeed = 1
	// warmJobs are sent one at a time before the window; closedListLen is
	// the closed loop's job sequence, which ends the loop early if the
	// client gets through all of it.
	warmJobs, closedListLen = 64, 4000
	// drainWait bounds how long after the window jobs may still finish.
	drainWait = 10 * time.Second
	// clients is the number of the open loop's client connections, one
	// per core of the 2-core host the rates were set on.
	clients = 2
	// selectGrid is the number of required gains per bundled workload
	// and inlineGrid per pool program; a run draws them without
	// replacement, so every select misses the result cache.
	selectGrid, inlineGrid = 600, 12
	// recentRepeat is how many of the latest requests a repeat picks from.
	recentRepeat = 64
)

var (
	serviceWorkloads = []string{"gsm", "jpeg", "jpegdec"}
	// parentPcts are the required gains, in percent of reachable, of the
	// portfolio jobs edits derive from; editFactors scale one IP's area.
	parentPcts  = []int64{30, 50, 70, 90}
	editFactors = []float64{0.5, 0.8, 1.25, 2}
)

// gridGains spreads n required gains from 5% to 95% of maxGain.
func gridGains(maxGain int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = maxGain * int64(50*(n-1)+900*i) / int64(1000*(n-1))
	}
	return out
}

func selectKey(w string, rg int64) string    { return fmt.Sprintf("service/select/%s/%d", w, rg) }
func inlineKey(prog string, rg int64) string { return fmt.Sprintf("service/inline/%s/%d", prog, rg) }
func editKey(w string, pct int64, ip string, f float64) string {
	return fmt.Sprintf("service/edit/%s/%d/%s/%g", w, pct, ip, f)
}

// svcModels are the service's programs as the oracle sees them: the
// bundled workloads by name and the inline pool by index, analyzed
// exactly as partitad analyzes them.
type svcModels struct {
	bundled map[string]*partita.Design
	pool    []apps.Workload
	inline  []*partita.Design
}

func loadSvcModels() (*svcModels, error) {
	m := &svcModels{bundled: map[string]*partita.Design{}}
	gens := map[string]func() (apps.Workload, error){
		"gsm": apps.GSMEncoderWorkload, "jpeg": apps.JPEGEncoderWorkload, "jpegdec": apps.JPEGDecoderWorkload,
	}
	for _, name := range serviceWorkloads {
		w, err := gens[name]()
		if err != nil {
			return nil, err
		}
		d, err := partita.Analyze(w.Source, w.Root, w.Catalog, partita.Options{DataCount: w.DataCount})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		m.bundled[name] = d
	}
	pool, err := explorePool()
	if err != nil {
		return nil, err
	}
	m.pool = pool
	for _, w := range pool {
		d, err := partita.Analyze(w.Source, w.Root, w.Catalog, partita.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		m.inline = append(m.inline, d)
	}
	return m, nil
}

// editIPs are the IPs of d an edit may re-price: those some method uses.
func editIPs(d *partita.Design) []*partita.IP {
	seen := map[string]bool{}
	var out []*partita.IP
	for _, m := range d.DB.IMPs {
		if !seen[m.IP.ID] {
			seen[m.IP.ID] = true
			out = append(out, m.IP)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// serviceRefs hands every instance of the service grids to solve.
func serviceRefs(solve refSolver) error {
	m, err := loadSvcModels()
	if err != nil {
		return err
	}
	for _, w := range serviceWorkloads {
		an := selector.NewAnalysis(m.bundled[w].DB)
		for _, rg := range gridGains(an.MaxGain(), selectGrid) {
			if err := solve(selectKey(w, rg), an, rg, nil); err != nil {
				return err
			}
		}
		for _, pct := range parentPcts {
			rg := an.MaxGain() * pct / 100
			if err := solve(selectKey(w, rg), an, rg, nil); err != nil {
				return err
			}
			for _, blk := range editIPs(m.bundled[w]) {
				for _, f := range editFactors {
					area := map[string]float64{blk.ID: blk.Area * f}
					na, err := an.Apply(selector.Delta{IPArea: area})
					if err != nil {
						return err
					}
					if err := solve(editKey(w, pct, blk.ID, f), na, rg, area); err != nil {
						return err
					}
				}
			}
		}
	}
	for k, d := range m.inline {
		an := selector.NewAnalysis(d.DB)
		for _, rg := range gridGains(an.MaxGain(), inlineGrid) {
			if err := solve(inlineKey(m.pool[k].Name, rg), an, rg, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// svcJob is one request of the mix and, once sent, what became of it.
type svcJob struct {
	due    time.Duration // from the phase start
	step   int           // 0-3 in the open loop, -1 in the closed loop
	kind   string        // select, repeat, inline, portfolio, edit
	url    string        // path the request posts to
	body   []byte
	db     *imp.DB
	rg     int64
	ipArea map[string]float64
	ref    string
	traced bool

	sent        time.Time
	lag, submit time.Duration
	job         *service.Job
	coalesced   bool
	err         error
}

// drawer deals a frozen list in seeded order, without replacement until
// it runs dry and then again from a fresh shuffle.
type drawer struct {
	rng  *rand.Rand
	n, i int
	perm []int
}

func (d *drawer) next() int {
	if d.i == len(d.perm) {
		d.perm, d.i = d.rng.Perm(d.n), 0
	}
	d.i++
	return d.perm[d.i-1]
}

// mixer generates the seeded request mix.
type mixer struct {
	rng     *rand.Rand
	models  *svcModels
	grids   map[string][]int64
	selects map[string]*drawer
	folio   map[string]*drawer
	inline  *drawer
	edits   *drawer
	parents []editParent
	combos  []editCombo
	recent  []*svcJob
}

// editParent is a portfolio job submitted before the window that edit
// requests derive from.
type editParent struct {
	w   string
	pct int64
	rg  int64
	id  string
}

type editCombo struct {
	parent int
	ip     string
	factor float64
	area   float64
}

func newMixer(seed int64, models *svcModels, parents []editParent) *mixer {
	rng := rand.New(rand.NewSource(seed))
	mx := &mixer{rng: rng, models: models, grids: map[string][]int64{}, selects: map[string]*drawer{}, folio: map[string]*drawer{}, parents: parents}
	for _, w := range serviceWorkloads {
		mx.grids[w] = gridGains(models.bundled[w].MaxReachableGain(), selectGrid)
		mx.selects[w] = &drawer{rng: rng, n: selectGrid}
		mx.folio[w] = &drawer{rng: rng, n: selectGrid}
	}
	mx.inline = &drawer{rng: rng, n: len(models.inline) * inlineGrid}
	for p, par := range parents {
		for _, blk := range editIPs(models.bundled[par.w]) {
			for _, f := range editFactors {
				mx.combos = append(mx.combos, editCombo{parent: p, ip: blk.ID, factor: f, area: blk.Area * f})
			}
		}
	}
	mx.edits = &drawer{rng: rng, n: len(mx.combos)}
	return mx
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data structures are marshaled
	}
	return raw
}

// take draws n requests.
func (mx *mixer) take(n int) []*svcJob {
	out := make([]*svcJob, n)
	for i := range out {
		out[i] = mx.next()
	}
	return out
}

// portfolioJob is a portfolio-mode select on bundled workload w.
func portfolioJob(w string, rg int64, models *svcModels) *svcJob {
	gap := serviceGap
	return &svcJob{kind: "portfolio", url: "/v1/jobs", db: models.bundled[w].DB, rg: rg, ref: selectKey(w, rg),
		body: mustJSON(service.JobSpec{Kind: service.KindSelect, Workload: w, RequiredGain: rg, Mode: service.ModePortfolio, Gap: &gap})}
}

// next draws one request of the mix.
func (mx *mixer) next() *svcJob {
	u := mx.rng.Float64()
	w := serviceWorkloads[mx.rng.Intn(len(serviceWorkloads))]
	var j *svcJob
	switch {
	case u < shareSelect:
		rg := mx.grids[w][mx.selects[w].next()]
		j = &svcJob{kind: "select", url: "/v1/jobs", db: mx.models.bundled[w].DB, rg: rg, ref: selectKey(w, rg),
			body: mustJSON(service.JobSpec{Kind: service.KindSelect, Workload: w, RequiredGain: rg})}
	case u < shareSelect+shareRepeat && len(mx.recent) > 0:
		prev := mx.recent[mx.rng.Intn(len(mx.recent))]
		cp := *prev
		cp.kind = "repeat"
		return &cp
	case u < shareSelect+shareRepeat+shareInline:
		c := mx.inline.next()
		k, d := c/inlineGrid, mx.models.inline[c/inlineGrid]
		rg := gridGains(d.MaxReachableGain(), inlineGrid)[c%inlineGrid]
		src := mx.models.pool[k]
		j = &svcJob{kind: "inline", url: "/v1/jobs", db: d.DB, rg: rg, ref: inlineKey(src.Name, rg),
			body: mustJSON(service.JobSpec{Kind: service.KindSelect, Source: src.Source, Root: src.Root,
				Catalog: src.Catalog.All(), RequiredGain: rg})}
	case mx.rng.Intn(2) == 0:
		j = portfolioJob(w, mx.grids[w][mx.folio[w].next()], mx.models)
	default:
		c := mx.combos[mx.edits.next()]
		par := mx.parents[c.parent]
		area := map[string]float64{c.ip: c.area}
		j = &svcJob{kind: "edit", url: "/v1/jobs/" + par.id + "/edits", db: mx.models.bundled[par.w].DB, rg: par.rg,
			ipArea: area, ref: editKey(par.w, par.pct, c.ip, c.factor),
			body: mustJSON(service.EditRequest{Edits: []partita.Delta{{IPArea: area}}})}
	}
	mx.recent = append(mx.recent, j)
	if len(mx.recent) > recentRepeat {
		mx.recent = mx.recent[1:]
	}
	return j
}

// svcEnv is a running partitad with its journal, HTTP front, and client.
type svcEnv struct {
	dir    string
	srv    *service.Server
	hs     *httptest.Server
	client *http.Client

	mu   sync.Mutex
	seen map[string]bool // job IDs submits returned; a returned ID seen before is a coalesced submit
}

// openService starts partitad as its set-up does: two workers, the
// journal on with an fsync per append, served over loopback HTTP.
func openService() (*svcEnv, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "journal-")
	if err != nil {
		return nil, err
	}
	srv, err := service.Open(service.Config{
		Workers:     2,
		QueueDepth:  1 << 14, // overload shows as backlog, never as rejections
		MaxJobs:     1 << 16, // edit parents must stay addressable all run
		JournalPath: dir + "/journal",
	})
	if err != nil {
		_ = os.RemoveAll(dir) // best effort: the open error is the one to report
		return nil, err
	}
	srv.Start()
	hs := httptest.NewServer(srv)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return &svcEnv{dir: dir, srv: srv, hs: hs, client: client, seen: map[string]bool{}}, nil
}

func (e *svcEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: service shutdown:", err)
	}
	e.hs.Close()
	e.client.CloseIdleConnections()
	if err := e.srv.CloseJournal(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: journal close:", err)
	}
	if err := os.RemoveAll(e.dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: removing the journal:", err)
	}
}

// send posts one request and looks the accepted job up in-process; the
// job's timestamps and result are read from it when it finishes.
func (e *svcEnv) send(j *svcJob) {
	start := time.Now()
	resp, err := e.client.Post(e.hs.URL+j.url, "application/json", bytes.NewReader(j.body))
	if err != nil {
		j.err = err
		return
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	_, _ = io.Copy(io.Discard, resp.Body) // reading to EOF lets the connection be reused; a failed read only costs that
	resp.Body.Close()
	j.submit = time.Since(start)
	switch {
	case err != nil:
		j.err = fmt.Errorf("decoding the %s response: %w", resp.Status, err)
		return
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("submit answered %s: %s", resp.Status, v.Error)
		return
	}
	job, ok := e.srv.Job(v.ID)
	if !ok {
		j.err = fmt.Errorf("job %s is not tracked", v.ID)
		return
	}
	j.job = job
	e.mu.Lock()
	j.coalesced = e.seen[v.ID]
	e.seen[v.ID] = true
	e.mu.Unlock()
}

// verifyJob checks a finished job's answer with the oracle.
func verifyJob(j *svcJob, refs map[string]answer) error {
	if j.err != nil {
		return j.err
	}
	v := j.job.View()
	if v.Status != service.StatusDone {
		return fmt.Errorf("job %s is %s: %s", v.ID, v.Status, v.Error)
	}
	if v.Result == nil || v.Result.Selection == nil {
		return fmt.Errorf("job %s has no selection", v.ID)
	}
	sel := v.Result.Selection
	ids := make([]string, len(sel.Chosen))
	for i, c := range sel.Chosen {
		ids[i] = c.ID
	}
	chosen, err := byID(j.db, ids)
	if err != nil {
		return err
	}
	st := sel.Status
	if sel.Degraded != "" {
		st = "degraded"
	}
	want, ok := refs[j.ref]
	if !ok {
		return fmt.Errorf("no reference answer for %s; run with -regen", j.ref)
	}
	if _, err := verify(j.db, j.rg, j.ipArea, claim{Status: st, Chosen: chosen, Area: sel.Area, Gain: sel.Gain}, want); err != nil {
		return fmt.Errorf("%s (%s): %w", v.ID, j.ref, err)
	}
	return nil
}

// scrape reads partitad's /metrics counters, keyed by series.
func (e *svcEnv) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.hs.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// histQuantile estimates a quantile of a Prometheus histogram from the
// difference of two scrapes, interpolating within the bucket.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for series, v := range after {
		rest, ok := strings.CutPrefix(series, name+`_bucket{le="`)
		if !ok || strings.HasPrefix(rest, "+Inf") {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err == nil {
			bs = append(bs, bucket{le, v - before[series]})
		}
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 {
		return 0
	}
	rank, prevLe, prevN := q*total, 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// runService is the service workload. Every run sends the same
// multiset of jobs, drawn once from mixSeed, and the closed loop sends
// its jobs in one fixed order; the run's seed decides only the open
// loop's order and arrival times, so runs differ in timing, not in the
// work asked for.
func runService(cfg config) (*result, error) {
	// The load generator shares the process with partitad. With one P
	// per core, the generator would queue behind the two solving workers
	// for up to a scheduler quantum; spare Ps let the OS wake it on time.
	runtime.GOMAXPROCS(2 * runtime.NumCPU())
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	res := newResult()
	env, err := openService()
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cfg.trace {
		res.tr = newTracer()
	}
	models, err := loadSvcModels()
	if err != nil {
		return nil, err
	}
	parents, err := warmService(env, models, refs, res)
	if err != nil {
		return nil, err
	}

	mx := newMixer(mixSeed, models, parents)
	for _, j := range mx.take(warmJobs) {
		env.send(j)
		if j.job != nil {
			<-j.job.DoneCh()
		}
		res.attempted++
		if err := verifyJob(j, refs); err != nil {
			res.fail("warm-up", err)
		}
	}
	closedWindow := cfg.window / 2
	stepLen := (cfg.window - closedWindow) / time.Duration(len(serviceRates))
	closedList := mx.take(closedListLen)
	steps := make([][]*svcJob, len(serviceRates))
	for s, rate := range serviceRates {
		steps[s] = mx.take(int(rate*stepLen.Seconds() + 0.5))
	}
	before, err := env.scrape()
	if err != nil {
		return nil, err
	}
	closedJobs, st, err := closedPhase(env, closedList, closedWindow)
	if err != nil {
		return nil, err
	}
	sched := schedule(cfg, steps, stepLen)
	openStart := openLoop(env, sched)
	openEnd := openStart.Add(time.Duration(len(serviceRates)) * stepLen)

	// Every job must finish within drainWait of the window's end.
	all := append(closedJobs, sched...)
	ctx, cancel := context.WithDeadline(context.Background(), openEnd.Add(drainWait))
	defer cancel()
	for _, j := range all {
		if j.job == nil {
			continue
		}
		select {
		case <-j.job.DoneCh():
		case <-ctx.Done():
		}
	}
	after, err := env.scrape()
	if err != nil {
		return nil, err
	}
	for _, j := range all {
		res.attempted++
		if j.job != nil && !j.job.Done() {
			j.err = fmt.Errorf("job %s unfinished %v after the window", j.job.ID, drainWait)
		}
		if err := verifyJob(j, refs); err != nil {
			res.fail(j.kind, err)
		}
	}
	st.report(res)
	serviceMetrics(res, sched, openStart, stepLen, before, after)
	if res.tr != nil {
		traceJobs(res.tr, sched)
	}
	return res, nil
}

// warmService analyzes every bundled workload once, so the design cache
// holds them, by submitting the portfolio jobs edits derive from.
func warmService(env *svcEnv, models *svcModels, refs map[string]answer, res *result) ([]editParent, error) {
	var parents []editParent
	for _, w := range serviceWorkloads {
		for _, pct := range parentPcts {
			rg := models.bundled[w].MaxReachableGain() * pct / 100
			j := portfolioJob(w, rg, models)
			env.send(j)
			if j.err != nil {
				return nil, fmt.Errorf("warm-up: %w", j.err)
			}
			<-j.job.DoneCh()
			res.attempted++
			if err := verifyJob(j, refs); err != nil {
				res.fail("warm-up", err)
			}
			parents = append(parents, editParent{w: w, pct: pct, rg: rg, id: j.job.ID})
		}
	}
	return parents, nil
}

// closedPhase is the closed loop: one client sends list's jobs in order,
// each once the previous one finished, for at most d. It probes the host
// between jobs and, setupRuns times spread over the phase, opens and
// closes a second partitad to time set-up. A job's
// latency runs from its POST to the server's finishedAt.
func closedPhase(env *svcEnv, list []*svcJob, d time.Duration) ([]*svcJob, loopStats, error) {
	st := loopStats{probe: newProbe()}
	start := st.probe.start
	for ; st.requests < len(list) && time.Since(start) < d; st.requests++ {
		if len(st.setups)*int(d) <= setupRuns*int(time.Since(start)) {
			t0 := time.Now()
			e, err := openService()
			if err != nil {
				return nil, st, err
			}
			st.setups = append(st.setups, sample{start: t0, took: time.Since(t0)})
			e.close()
		}
		j := list[st.requests]
		j.step = -1
		t0 := time.Now()
		env.send(j)
		if j.job != nil {
			<-j.job.DoneCh()
			if v := j.job.View(); v.FinishedAt != nil {
				st.reqs = append(st.reqs, sample{inst: st.requests, start: t0, took: v.FinishedAt.Sub(t0)})
			}
		}
		st.probe.between()
	}
	st.elapsed = time.Since(start)
	return list[:st.requests], st, nil
}

// schedule orders the open loop: each step's jobs in seeded order at
// Poisson arrival times (given the count, arrival times of a Poisson
// process are uniform over the step).
func schedule(cfg config, steps [][]*svcJob, stepLen time.Duration) []*svcJob {
	rng := rand.New(rand.NewSource(cfg.seed))
	var sched []*svcJob
	for s, jobs := range steps {
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		due := make([]time.Duration, len(jobs))
		for i := range due {
			due[i] = time.Duration(s)*stepLen + time.Duration(rng.Int63n(int64(stepLen)))
		}
		sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
		for i, j := range jobs {
			j.due, j.step = due[i], s
			j.traced = cfg.trace && len(sched)%2 == 0
			sched = append(sched, j)
		}
	}
	return sched
}

// openLoop sends the schedule: one generator goroutine hands each job,
// when due, to the client connections. It returns the loop's start,
// which due times count from.
func openLoop(env *svcEnv, sched []*svcJob) time.Time {
	queue := make(chan *svcJob, len(sched)) // sized to the schedule: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j.sent = time.Now()
				j.lag = j.sent.Sub(start) - j.due
				env.send(j)
			}
		}()
	}
	go func() {
		defer close(queue)
		for _, j := range sched {
			if d := j.due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			queue <- j
		}
	}()
	wg.Wait()
	return start
}

// traceJobs records the traced jobs' spans from their timestamps, so the
// client connections never wait on tracing: the request runs from the
// send to the job's finish, split into the HTTP submit and the wait for
// the server to run the job.
func traceJobs(tr *tracer, sched []*svcJob) {
	for _, j := range sched {
		if !j.traced || j.job == nil {
			continue
		}
		v := j.job.View()
		if v.FinishedAt == nil {
			continue
		}
		req, root := tr.record(0, 0, "bench.request", j.sent, *v.FinishedAt)
		tr.record(req, root, "service.submit", j.sent, j.sent.Add(j.submit))
		tr.record(req, root, "service.wait", j.sent.Add(j.submit), *v.FinishedAt)
	}
}

// serviceMetrics derives the open loop's latency, backlog, and layer
// metrics. Latency is the job's finish minus its due time.
func serviceMetrics(res *result, sched []*svcJob, start time.Time, stepLen time.Duration, before, after map[string]float64) {
	m := res.metrics
	n := len(serviceRates)
	lat := make([][]float64, n)
	wait := make([][]float64, n)
	lag := make([][]float64, n)
	backlog := make([]int, n)
	var traced, untraced, submit, run []float64
	var first, settle []float64
	var confirmed, folio float64
	for _, engine := range []string{"seed", "capacity", "greedy", "lpround", "exact"} {
		m["portfolio.wins."+engine] = 0
	}
	for _, j := range sched {
		if j.job == nil {
			continue
		}
		v := j.job.View()
		s := j.step
		lag[s] = append(lag[s], ms(j.lag))
		submit = append(submit, ms(j.submit))
		if v.FinishedAt == nil {
			continue
		}
		due := start.Add(j.due)
		l := ms(v.FinishedAt.Sub(due))
		lat[s] = append(lat[s], l)
		if s == 0 {
			if j.traced {
				traced = append(traced, l)
			} else {
				untraced = append(untraced, l)
			}
		}
		for t := s; t < n; t++ {
			if end := start.Add(time.Duration(t+1) * stepLen); v.FinishedAt.After(end) && due.Before(end) {
				backlog[t]++
			}
		}
		if v.StartedAt != nil && !j.coalesced && !v.Cached {
			wait[s] = append(wait[s], ms(v.StartedAt.Sub(v.SubmittedAt)))
			run = append(run, ms(v.FinishedAt.Sub(*v.StartedAt)))
		}
		if v.Result == nil || v.Result.Selection == nil {
			continue
		}
		if p := v.Result.Selection.Portfolio; p != nil && !v.Cached && !j.coalesced {
			folio++
			first = append(first, p.FirstMs)
			settle = append(settle, p.SettleMs)
			if p.Confirmed {
				confirmed++
			}
			m["portfolio.wins."+p.FirstEngine]++
		}
	}
	var allWait []float64
	maxOK, worstLag, served := 0.0, 0.0, true
	for s := 0; s < n; s++ {
		r := fmt.Sprintf(".r%d", s+1)
		tl := tail(lat[s])
		m["service.lat_tail_ms"+r] = tl
		m["service.backlog_end"+r] = float64(backlog[s])
		m["service.queue_wait_ms_tail"+r] = tail(wait[s])
		allWait = append(allWait, wait[s]...)
		worstLag = max(worstLag, tail(lag[s]))
		// A step is served when it and every slower step meet the limits.
		served = served && tl <= ms(latLimit) && float64(backlog[s]) <= serviceRates[s]*backlogLimit
		if served {
			maxOK = serviceRates[s]
		}
		fmt.Fprintf(os.Stderr, "bench: step r%d %.0f jobs/s: %d jobs, p50 %.1f ms, tail p%.1f %.1f ms, backlog %d, lag tail %.2f ms\n",
			s+1, serviceRates[s], len(lat[s]), median(lat[s]), 100*tailQ(len(lat[s])), tl, backlog[s], tail(lag[s]))
	}
	m["service.lat_p50_ms.r1"] = median(lat[0])
	m["service.max_ok_rate"] = maxOK
	m["bench.gen_lag_ms_tail"] = worstLag
	m["service.submit_ms_p50"] = median(submit)
	m["service.queue_wait_ms_p50"] = median(allWait)
	m["service.queue_wait_ms_tail"] = tail(allWait)
	m["service.run_ms_p50"] = median(run)
	m["service.run_ms_tail"] = tail(run)
	if len(traced) > 0 && len(untraced) > 0 {
		m["bench.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	}
	m["portfolio.first_ms_p50"] = median(first)
	m["portfolio.settle_ms_p50"] = median(settle)
	m["portfolio.confirmed_frac"] = frac(confirmed, folio)

	delta := func(series string) float64 { return after[series] - before[series] }
	hits, misses := delta(`partitad_cache_hits_total{cache="result"}`), delta(`partitad_cache_misses_total{cache="result"}`)
	m["service.result_hit_frac"] = frac(hits, hits+misses)
	hits, misses = delta(`partitad_cache_hits_total{cache="design"}`), delta(`partitad_cache_misses_total{cache="design"}`)
	m["service.design_hit_frac"] = frac(hits, hits+misses)
	var submitted float64
	for series := range after {
		if strings.HasPrefix(series, "partitad_jobs_submitted_total{") {
			submitted += delta(series)
		}
	}
	m["service.coalesced_frac"] = frac(delta("partitad_jobs_coalesced_total"), submitted+delta("partitad_jobs_coalesced_total"))
	m["service.solves_started"] = delta("partitad_solves_started_total")
	m["service.fsync_ms_p50"] = 1000 * histQuantile(before, after, "partitad_journal_fsync_seconds", 0.5)
}
