package service

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"partita"
	"partita/internal/apps"
	"partita/internal/journal"
)

// Kind names a job type.
type Kind string

// Job kinds.
const (
	// KindAnalyze parses, lowers, and summarizes the program's IMP
	// database without solving.
	KindAnalyze Kind = "analyze"
	// KindSelect solves one S-instruction selection.
	KindSelect Kind = "select"
	// KindSweep solves the area/gain trade-off curve.
	KindSweep Kind = "sweep"
)

// SpecOptions mirrors the declarative fields of partita.Options.
type SpecOptions struct {
	Optimize     bool  `json:"optimize,omitempty"`
	Problem2     bool  `json:"problem2,omitempty"`
	DefaultTrips int64 `json:"defaultTrips,omitempty"`
}

// JobSpec is one submitted job. Either Workload names a bundled
// application (gsm, jpeg, jpegdec) or Source/Root/Catalog describe the
// program inline; the two forms are mutually exclusive.
type JobSpec struct {
	Kind     Kind   `json:"kind"`
	Workload string `json:"workload,omitempty"`
	// Source is the mini-C program; Root the function whose s-calls are
	// optimized; Catalog the IP library (required with Source).
	Source  string        `json:"source,omitempty"`
	Root    string        `json:"root,omitempty"`
	Catalog []*partita.IP `json:"catalog,omitempty"`
	Options SpecOptions   `json:"options"`
	// RequiredGain is the per-path cycle-gain constraint of a select
	// job; PerPath optionally overrides it per execution path.
	RequiredGain int64   `json:"requiredGain,omitempty"`
	PerPath      []int64 `json:"perPath,omitempty"`
	// Points is the sweep resolution (default 5, capped at 50).
	Points int `json:"points,omitempty"`
	// TimeoutMs bounds the solve wall clock; MaxNodes bounds the
	// branch-and-bound work. On exhaustion the job still completes, with
	// a feasible (anytime) or degraded result.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	MaxNodes  int   `json:"maxNodes,omitempty"`
	// Parallelism is accepted and ignored: every solve runs the serial
	// branch and bound.
	//
	// Deprecated: kept so existing clients' requests still decode; it
	// has no effect and is left out of the content address.
	Parallelism int `json:"parallelism,omitempty"`
	// Mode selects the solver strategy of a select job: "" runs the
	// exact solver alone, ModePortfolio races the capacity-bound
	// witness, the seeded previous answer on edits, greedy, and the
	// exact solver, in that order, surfacing the first acceptable
	// answer and per-engine attribution on the result.
	Mode string `json:"mode,omitempty"`
	// Gap is the portfolio acceptability threshold (relative area gap);
	// nil takes the server's configured default, 0 accepts only proven
	// results. Portfolio mode only.
	Gap *float64 `json:"gap,omitempty"`
	// Edits is the interactive edit history folded into this job: each
	// entry is one batch of IP-area / IMP-gain / required-gain changes,
	// applied in order on top of the base program. Jobs created by
	// POST /v1/jobs/{id}/edits carry the parent's history plus the new
	// edit, so the spec stays self-contained and journal replay re-runs
	// it without needing the parent's in-memory state.
	Edits []partita.Delta `json:"edits,omitempty"`
	// ParentKey is the result key of the job this spec was derived from
	// by an edit; the parent's cached selection, when still available,
	// races re-priced as the portfolio's seed candidate. Part of the
	// content address (a seed candidate can change anytime results under
	// a budget).
	ParentKey string `json:"parentKey,omitempty"`

	// inheritDeadline is the remaining budget a forwarded request
	// carried in the DeadlineHeader. Deliberately unexported: it is a
	// transport-level cap on this execution, not part of the problem, so
	// it stays out of the content address (the key must match the
	// original submitter's) and out of the journal (a replayed job
	// re-runs under its own full budget).
	inheritDeadline time.Duration
}

// ModePortfolio is the racing-portfolio solver mode of a select job.
const ModePortfolio = "portfolio"

// EditDelta is one batch of interactive edits on the wire — IP area,
// IMP gain, and required-gain replacements (partita.Delta's JSON form).
type EditDelta = partita.Delta

// maxSweepPoints caps the per-job sweep resolution.
const maxSweepPoints = 50

// Validate checks the structural rules that do not need workload
// resolution.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindAnalyze, KindSelect, KindSweep:
	case "":
		return fmt.Errorf("service: missing job kind (analyze, select, or sweep)")
	default:
		return fmt.Errorf("service: unknown job kind %q", s.Kind)
	}
	if s.Workload != "" {
		if s.Source != "" || len(s.Catalog) > 0 {
			return fmt.Errorf("service: workload and inline source/catalog are mutually exclusive")
		}
	} else {
		if s.Source == "" {
			return fmt.Errorf("service: either workload or source is required")
		}
		if s.Root == "" {
			return fmt.Errorf("service: root is required with source")
		}
		if len(s.Catalog) == 0 {
			return fmt.Errorf("service: catalog is required with source")
		}
	}
	if s.RequiredGain < 0 {
		return fmt.Errorf("service: requiredGain must be >= 0")
	}
	if s.Points < 0 || s.Points > maxSweepPoints {
		return fmt.Errorf("service: points must be in [0, %d]", maxSweepPoints)
	}
	if s.TimeoutMs < 0 {
		return fmt.Errorf("service: timeoutMs must be >= 0")
	}
	if s.MaxNodes < 0 {
		return fmt.Errorf("service: maxNodes must be >= 0")
	}
	if len(s.PerPath) > 0 && s.Kind != KindSelect {
		return fmt.Errorf("service: perPath applies only to select jobs")
	}
	switch s.Mode {
	case "":
		if s.Gap != nil || len(s.Edits) > 0 || s.ParentKey != "" {
			return fmt.Errorf("service: gap, edits, and parentKey require mode %q", ModePortfolio)
		}
	case ModePortfolio:
		if s.Kind != KindSelect {
			return fmt.Errorf("service: mode %q applies only to select jobs", ModePortfolio)
		}
		if s.Gap != nil && (*s.Gap < 0 || *s.Gap >= 1 || math.IsNaN(*s.Gap)) {
			return fmt.Errorf("service: gap must be in [0, 1)")
		}
		for i, e := range s.Edits {
			if e.Required != nil && *e.Required < 0 {
				return fmt.Errorf("service: edit %d sets negative required gain", i)
			}
			for k, v := range e.PathRequired {
				if k < 0 || v < 0 {
					return fmt.Errorf("service: edit %d has invalid path requirement %d:%d", i, k, v)
				}
			}
			for id, a := range e.IPArea {
				if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
					return fmt.Errorf("service: edit %d sets IP %q area to invalid %g", i, id, a)
				}
			}
			for id, g := range e.IMPGain {
				if g < 0 {
					return fmt.Errorf("service: edit %d sets IMP %q gain to negative %d", i, id, g)
				}
			}
		}
	default:
		return fmt.Errorf("service: unknown mode %q (only %q)", s.Mode, ModePortfolio)
	}
	return nil
}

// resolveWorkload maps a bundled-workload name to its definition.
// Workloads are built once and shared: their pieces are read-only.
var resolveWorkload = func() func(name string) (apps.Workload, error) {
	var mu sync.Mutex
	cache := map[string]apps.Workload{}
	builders := map[string]func() (apps.Workload, error){
		"gsm":     apps.GSMEncoderWorkload,
		"jpeg":    apps.JPEGEncoderWorkload,
		"jpegdec": apps.JPEGDecoderWorkload,
	}
	return func(name string) (apps.Workload, error) {
		mu.Lock()
		defer mu.Unlock()
		if w, ok := cache[name]; ok {
			return w, nil
		}
		build, ok := builders[name]
		if !ok {
			return apps.Workload{}, fmt.Errorf("service: unknown workload %q (have gsm, jpeg, jpegdec)", name)
		}
		w, err := build()
		if err != nil {
			return apps.Workload{}, err
		}
		cache[name] = w
		return w, nil
	}
}()

// resolve expands the spec into Analyze inputs plus the hash tags that
// make non-declarative inputs (bundled DataCount functions) part of the
// content address.
func (s *JobSpec) resolve() (source, root string, cat *partita.Catalog, opt partita.Options, tags []string, err error) {
	opt = partita.Options{
		Optimize:     s.Options.Optimize,
		Problem2:     s.Options.Problem2,
		DefaultTrips: s.Options.DefaultTrips,
	}
	if s.Workload != "" {
		w, werr := resolveWorkload(s.Workload)
		if werr != nil {
			err = werr
			return
		}
		root = w.Root
		if s.Root != "" {
			root = s.Root
		}
		opt.DataCount = w.DataCount
		return w.Source, root, w.Catalog, opt, []string{"workload:" + s.Workload}, nil
	}
	cat, err = partita.NewCatalog(s.Catalog...)
	if err != nil {
		return
	}
	return s.Source, s.Root, cat, opt, nil, nil
}

// designKey is the content address of the analyzed design alone.
func (s *JobSpec) designKey() (string, error) {
	source, root, cat, opt, tags, err := s.resolve()
	if err != nil {
		return "", err
	}
	return partita.CanonicalHash(source, root, cat, opt, tags...), nil
}

// resultKey is the content address of the full job: the design key plus
// every field that can change the answer (kind, gains, sweep
// resolution, and the solve budgets — a budget-limited anytime result
// must not be served to an unlimited request).
func (s *JobSpec) resultKey() (string, error) {
	source, root, cat, opt, tags, err := s.resolve()
	if err != nil {
		return "", err
	}
	per := make([]string, len(s.PerPath))
	for i, v := range s.PerPath {
		per[i] = strconv.FormatInt(v, 10)
	}
	tags = append(tags,
		"kind:"+string(s.Kind),
		"rg:"+strconv.FormatInt(s.RequiredGain, 10),
		"perPath:"+strings.Join(per, ","),
		"points:"+strconv.Itoa(s.Points),
		"timeoutMs:"+strconv.FormatInt(s.TimeoutMs, 10),
		"maxNodes:"+strconv.Itoa(s.MaxNodes),
		// The ignored Parallelism field is hashed as its old default, so
		// every content address written before it was ignored stays
		// valid and specs differing only in it share one result.
		"parallelism:0",
	)
	if s.Mode != "" {
		gap := "default"
		if s.Gap != nil {
			gap = strconv.FormatFloat(*s.Gap, 'g', -1, 64)
		}
		// json.Marshal sorts map keys, so the edit encoding — and with it
		// the content address — is deterministic.
		edits, jerr := json.Marshal(s.Edits)
		if jerr != nil {
			return "", jerr
		}
		tags = append(tags,
			"mode:"+s.Mode,
			"gap:"+gap,
			"edits:"+string(edits),
			// The seed candidate a parent provides cannot change a settled
			// proof, but under a budget the race can settle on it — so the
			// parent is part of the content address.
			"parent:"+s.ParentKey,
		)
	}
	return partita.CanonicalHash(source, root, cat, opt, tags...), nil
}

// Status is a job lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Progress is the anytime snapshot of a running solve, updated on every
// new incumbent.
type Progress struct {
	// IncumbentArea is the best configuration's area so far.
	IncumbentArea float64 `json:"incumbentArea"`
	// Bound is the proven lower bound on the optimal area (-1 when no
	// finite bound is known).
	Bound float64 `json:"bound"`
	// Gap is the relative optimality gap (-1 when unknown).
	Gap float64 `json:"gap"`
	// Nodes counts branch-and-bound nodes explored so far.
	Nodes int `json:"nodes"`
	// Incumbents counts how many strictly improving configurations the
	// solver has reported.
	Incumbents int `json:"incumbents"`
}

// JobResult is the wire form of one finished job; exactly one of the
// payload fields is set, matching Kind.
type JobResult struct {
	Kind      Kind               `json:"kind"`
	Analyze   *AnalyzeResult     `json:"analyze,omitempty"`
	Selection *SelectionResult   `json:"selection,omitempty"`
	Sweep     []SweepPointResult `json:"sweep,omitempty"`
	Batch     *BatchResult       `json:"batch,omitempty"`
}

// Ownership records cluster routing information for one accepted job.
// It is resolved by the Config.OwnerOf hook at acceptance time and is
// immutable afterwards: it describes the routing decision the node
// acted on, not the ring's current state.
type Ownership struct {
	// Node is the node that accepted (and will run) the job.
	Node string `json:"node,omitempty"`
	// Owner is the consistent-hash owner of the job's key among the
	// statically configured peers, dead or alive.
	Owner string `json:"owner,omitempty"`
	// Failover marks a job accepted away from its static owner because
	// that owner was unreachable when the job arrived.
	Failover bool `json:"failover,omitempty"`
}

// Job is one tracked submission.
type Job struct {
	ID   string
	Spec JobSpec
	Key  string

	// owner is the cluster routing record (nil outside cluster mode).
	// Set once before the job is visible to any other goroutine.
	owner *Ownership

	// batch points a KindBatch job back at the Batch it carries through
	// the worker pool (nil for ordinary jobs). Set before the job is
	// visible to any other goroutine.
	batch *Batch

	// doneCh closes when the job reaches a terminal state; long-poll
	// handlers and clients wait on it.
	doneCh chan struct{}

	// deadlineClamped marks a solve whose timeout was shortened to a
	// forwarded caller's inherited deadline. Written by execute and read
	// by runJob on the same worker goroutine; never touched elsewhere.
	deadlineClamped bool

	mu        sync.Mutex
	status    Status
	cached    bool
	recovered bool
	progress  *Progress
	result    *JobResult
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	lastCkpt  time.Time
	// Journal records still live for this job (see compactJournal). The
	// submit and final records are kept without their payloads, which
	// compaction re-encodes from the job's own fields, so a finished job
	// holds no journal JSON. memoize and outcome are the two fields of
	// the done record the job keeps nowhere else. The latest checkpoint
	// of an unfinished job is kept whole.
	recSubmit *journal.Record
	recCkpt   *journal.Record
	recFinal  *journal.Record
	memoize   bool
	outcome   string
}

// JobView is the JSON snapshot served by the poll endpoints.
type JobView struct {
	ID     string `json:"id"`
	Kind   Kind   `json:"kind"`
	Status Status `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Recovered marks a job restored or re-enqueued from the journal
	// after a restart.
	Recovered   bool       `json:"recovered,omitempty"`
	Key         string     `json:"key"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	Progress    *Progress  `json:"progress,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Cluster reports which node accepted the job and who its ring
	// owner was, in cluster mode (absent on single-node daemons).
	Cluster *Ownership `json:"cluster,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Kind:        j.Spec.Kind,
		Status:      j.status,
		Cached:      j.cached,
		Recovered:   j.recovered,
		Key:         j.Key,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Result:      j.result,
	}
	if j.owner != nil {
		o := *j.owner
		v.Cluster = &o
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	return v
}

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == StatusDone || j.status == StatusFailed
}

// Result returns the finished result, or nil.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = now
	j.mu.Unlock()
}

func (j *Job) complete(res *JobResult, cached bool, now time.Time) {
	j.mu.Lock()
	terminal := j.status == StatusDone || j.status == StatusFailed
	j.status = StatusDone
	j.result = res
	j.cached = cached
	j.finished = now
	j.mu.Unlock()
	if !terminal && j.doneCh != nil {
		close(j.doneCh)
	}
}

func (j *Job) fail(err error, now time.Time) {
	j.mu.Lock()
	terminal := j.status == StatusDone || j.status == StatusFailed
	j.status = StatusFailed
	j.errMsg = err.Error()
	j.finished = now
	j.mu.Unlock()
	if !terminal && j.doneCh != nil {
		close(j.doneCh)
	}
}

// DoneCh closes when the job reaches a terminal state; it never closes
// for jobs that predate long-poll support (nil channel blocks forever,
// so callers should pair it with a timeout).
func (j *Job) DoneCh() <-chan struct{} { return j.doneCh }

// setRecord remembers the job's live journal records for compaction: a
// new checkpoint supersedes the previous one, and a final record
// retires every checkpoint. data is the record's payload; only a done
// record's memoize flag and outcome are kept from it.
func (j *Job) setRecord(typ string, rec journal.Record, data any) {
	j.mu.Lock()
	switch typ {
	case recSubmit:
		rec.Data = nil
		j.recSubmit = &rec
	case recCheckpoint:
		j.recCkpt = &rec
	case recDone, recFailed:
		if d, ok := data.(doneData); ok {
			j.memoize, j.outcome = d.Memoize, d.Outcome
		}
		rec.Data = nil
		j.recFinal = &rec
		j.recCkpt = nil
	}
	j.mu.Unlock()
}

// liveRecords returns the journal records compaction must keep for this
// job: its submit record, plus either the final state or the latest
// checkpoint, plus — for an unfinished batch — every settled point's
// record, so a crash mid-batch never re-solves completed points (a
// finished batch's done record carries all points, retiring them).
// Running records are never live — an unfinished job re-runs from its
// spec after a crash. The submit and final payloads are encoded afresh
// from the job's fields.
func (j *Job) liveRecords() ([]journal.Record, error) {
	j.mu.Lock()
	if j.recSubmit == nil {
		j.mu.Unlock()
		return nil, nil
	}
	sub := *j.recSubmit
	submit := submitData{ID: j.ID, Key: j.Key, Owner: j.owner}
	if j.batch != nil {
		submit.Batch = &j.batch.spec
	} else {
		submit.Spec = j.Spec
	}
	var final *journal.Record
	var finalData any
	if j.recFinal != nil {
		f := *j.recFinal
		final = &f
		finalData = failedData{Error: j.errMsg}
		if f.Type == recDone {
			finalData = doneData{Result: j.result, Cached: j.cached, Memoize: j.memoize, Outcome: j.outcome}
		}
	}
	ckpt := j.recCkpt
	batch := j.batch
	j.mu.Unlock()

	var err error
	if sub.Data, err = json.Marshal(submit); err != nil {
		return nil, fmt.Errorf("service: encode submit %s: %w", j.ID, err)
	}
	out := []journal.Record{sub}
	if final != nil {
		if final.Data, err = json.Marshal(finalData); err != nil {
			return nil, fmt.Errorf("service: encode %s %s: %w", final.Type, j.ID, err)
		}
		return append(out, *final), nil
	}
	if ckpt != nil {
		out = append(out, *ckpt)
	}
	if batch != nil {
		out = append(out, batch.pointRecords()...)
	}
	return out, nil
}

// checkpointDue reports whether enough time has passed since the last
// journaled checkpoint, and records the new checkpoint time when so.
func (j *Job) checkpointDue(now time.Time, every time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.lastCkpt.IsZero() && now.Sub(j.lastCkpt) < every {
		return false
	}
	j.lastCkpt = now
	return true
}

// progressSnapshot copies the current anytime progress.
func (j *Job) progressSnapshot() *Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.progress == nil {
		return nil
	}
	p := *j.progress
	return &p
}

// observe is the solver progress hook: it folds each new incumbent into
// the poll snapshot. Called synchronously from the solving goroutine.
func (j *Job) observe(in partita.Incumbent) {
	bound, gap := in.Bound, in.Gap
	if !finite(bound) {
		bound = -1
	}
	if !finite(gap) {
		gap = -1
	}
	j.mu.Lock()
	n := 1
	if j.progress != nil {
		n = j.progress.Incumbents + 1
	}
	j.progress = &Progress{
		IncumbentArea: in.Area,
		Bound:         bound,
		Gap:           gap,
		Nodes:         in.Nodes,
		Incumbents:    n,
	}
	j.mu.Unlock()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
