// Package journal is partitad's crash-safety layer: an append-only,
// checksummed, fsync'd write-ahead log of job lifecycle records. The
// service appends a record per state transition (submit, running,
// incumbent checkpoint, done, failed); after a crash, Open replays the
// surviving records so the daemon can re-enqueue unfinished jobs and
// restore finished results.
//
// # On-disk format
//
// The file is a sequence of frames:
//
//	uint32 LE  payload length n
//	uint32 LE  CRC32-Castagnoli of the payload
//	n bytes    payload (one JSON-encoded Record)
//
// There is no file header: a zero-length file is an empty, valid
// journal. Appends are atomic-enough under the POSIX guarantee that
// single write(2) calls to an O_APPEND-less fd at a tracked offset are
// applied in order; a crash can only tear the final frame. Replay
// therefore treats any malformed suffix — short header, short payload,
// checksum mismatch, or undecodable JSON — as a torn tail: it truncates
// the file back to the last whole record and carries on. Corruption is
// repaired, never fatal.
//
// A failed append in a live process gets the same treatment: the file
// is truncated back to the last whole record before any further append,
// so a torn frame can never strand later records behind a bad CRC. If
// that repair (or an fsync) fails, the journal degrades — appends
// return ErrDegraded until a Compact rewrites the live records to a
// fresh file.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// castagnoli is the CRC32-C table shared by append and replay.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the fixed per-record overhead: payload length + CRC.
const frameHeader = 8

// MaxRecordBytes bounds a single record payload. Replay rejects larger
// length fields as corruption (a torn length prefix would otherwise ask
// for a multi-gigabyte allocation).
const MaxRecordBytes = 16 << 20

// ErrDegraded reports that an earlier append failure could not be
// repaired (or an fsync failed), so the journal refuses further appends
// rather than risk writing past a torn frame. A successful Compact —
// which rewrites the live records to a fresh file — clears the state.
var ErrDegraded = errors.New("journal: degraded, appends suspended until compaction")

// Record is one journaled event. The journal itself is
// schema-agnostic: Type and Data are owned by the caller (the service
// layer defines submit/running/checkpoint/done/failed payloads).
type Record struct {
	// Seq is the journal-assigned monotonic sequence number.
	Seq uint64 `json:"seq"`
	// Type names the event (caller-defined).
	Type string `json:"type"`
	// Job identifies the subject job, when any.
	Job string `json:"job,omitempty"`
	// At is the append wall-clock time.
	At time.Time `json:"at"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no accepted record is lost
	// to a crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: fastest, loses the unsynced
	// suffix on power failure. Replay still repairs any torn tail.
	SyncNever
)

// ParseSyncPolicy maps the -journal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "never", "off":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("journal: unknown sync policy %q (want always or never)", s)
}

// Options tunes a Journal.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// OnFsync, when non-nil, observes every fsync's latency.
	OnFsync func(time.Duration)
	// WriteFault, when non-nil, is consulted before each append; a
	// non-nil result fails the append without touching the file
	// (fault injection).
	WriteFault func() error
	// ShortWriteFault, when non-nil and true, tears the append mid-frame
	// — the frame header and half the payload reach the file, then the
	// append fails (fault injection; Append repairs the torn frame by
	// truncating back to the last whole record).
	ShortWriteFault func() bool
	// SyncFault, when non-nil, is consulted in place of the real result
	// before each append's fsync; a non-nil error fails the sync and
	// degrades the journal (fault injection).
	SyncFault func() error
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	path string
	opts Options

	mu        sync.Mutex
	f         *os.File
	seq       uint64
	off       int64  // end of the last whole record on disk
	appends   uint64 // records appended since open/compact
	compacted uint64 // lifetime compaction count
	closed    bool
	degraded  bool // append failed and the file could not be repaired
}

// Replay is what Open recovered from disk.
type Replay struct {
	// Records are the decoded whole records, in append order.
	Records []Record
	// TruncatedBytes counts bytes dropped from a torn or corrupt tail
	// (0 for a clean file).
	TruncatedBytes int64
	// Corrupt reports that the drop was a mid-frame checksum or decode
	// failure rather than a short tail.
	Corrupt bool
	// Elapsed is the replay wall time.
	Elapsed time.Duration
}

// Open opens (creating if absent) the journal at path, replays every
// whole record, repairs any torn tail by truncation, and leaves the
// file positioned for appends. The parent directory must exist.
func Open(path string, opts Options) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	rep, goodOff, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if rep.TruncatedBytes > 0 {
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	j := &Journal{path: path, opts: opts, f: f, off: goodOff}
	for _, r := range rep.Records {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, rep, nil
}

// ReadAll replays the journal at path without opening it for writing or
// repairing the tail. Missing files read as empty.
func ReadAll(path string) (*Replay, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Replay{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	defer f.Close()
	rep, _, err := replay(f)
	return rep, err
}

// replay scans f from the start, returning the decoded records and the
// offset just past the last whole record.
func replay(f *os.File) (*Replay, int64, error) {
	start := time.Now()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: size: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: rewind: %w", err)
	}
	rep := &Replay{}
	var off int64
	var hdr [frameHeader]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			break // clean end
		}
		if err == io.ErrUnexpectedEOF {
			rep.TruncatedBytes = size - off
			break // torn header
		}
		if err != nil {
			return nil, 0, fmt.Errorf("journal: read header: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordBytes {
			rep.TruncatedBytes = size - off
			rep.Corrupt = true
			break // garbage length field
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				rep.TruncatedBytes = size - off
				break // torn payload
			}
			return nil, 0, fmt.Errorf("journal: read payload: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			rep.TruncatedBytes = size - off
			rep.Corrupt = true
			break // bit rot or torn rewrite: drop this record and the rest
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			rep.TruncatedBytes = size - off
			rep.Corrupt = true
			break
		}
		rep.Records = append(rep.Records, rec)
		off += int64(frameHeader) + int64(length)
	}
	rep.Elapsed = time.Since(start)
	return rep, off, nil
}

// Append journals one record: Data is marshaled, framed, written, and
// synced per the policy. The assigned Record (with Seq and At filled
// in) is returned. Appends after Close fail.
func (j *Journal) Append(typ, jobID string, data any) (Record, error) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return Record{}, fmt.Errorf("journal: marshal %s: %w", typ, err)
		}
		raw = b
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Record{}, errors.New("journal: closed")
	}
	if j.degraded {
		return Record{}, ErrDegraded
	}
	if j.opts.WriteFault != nil {
		if err := j.opts.WriteFault(); err != nil {
			return Record{}, err
		}
	}
	rec := Record{Seq: j.seq + 1, Type: typ, Job: jobID, At: time.Now().UTC(), Data: raw}
	payload, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("journal: marshal record: %w", err)
	}
	if len(payload) > MaxRecordBytes {
		return Record{}, fmt.Errorf("journal: record %s exceeds %d bytes", typ, MaxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	if j.opts.ShortWriteFault != nil && j.opts.ShortWriteFault() {
		// Simulate a torn write: half the frame lands, then the append
		// fails. Unlike a real crash the process lives on, so the torn
		// frame must be repaired before the next append — otherwise every
		// later record would sit behind a bad CRC and be silently dropped
		// at replay.
		_, _ = j.f.Write(frame[:frameHeader+len(payload)/2])
		_ = j.f.Sync()
		j.repair()
		return Record{}, errors.New("journal: injected short write")
	}
	if _, err := j.f.Write(frame); err != nil {
		// A failed write (ENOSPC, EIO) can leave a partial frame at the
		// tail; restore the file to the last whole record before
		// accepting more appends.
		j.repair()
		return Record{}, fmt.Errorf("journal: write: %w", err)
	}
	// The frame is fully written: claim its Seq now, even if the fsync
	// below fails, so no later record can ever share it.
	j.seq = rec.Seq
	if err := j.sync(); err != nil {
		// After a failed fsync the page cache can no longer be trusted to
		// hold what was written: suspend appends until a compaction
		// rewrites the live records to a fresh, fully synced file.
		j.degraded = true
		return Record{}, err
	}
	j.off += int64(len(frame))
	j.appends++
	return rec, nil
}

// repair restores the file to end at the last whole record after a
// failed append. If the truncate or seek itself fails, the journal
// flips to degraded: appends stop rather than risk landing past a torn
// frame (a successful Compact clears the state). Callers hold j.mu.
func (j *Journal) repair() {
	for attempt := 0; attempt < 3; attempt++ {
		if err := j.f.Truncate(j.off); err != nil {
			continue
		}
		if _, err := j.f.Seek(j.off, io.SeekStart); err != nil {
			continue
		}
		return
	}
	j.degraded = true
}

// Degraded reports whether appends are suspended after an unrepairable
// failure; Compact clears it.
func (j *Journal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// sync flushes per policy; callers hold j.mu.
func (j *Journal) sync() error {
	if j.opts.Sync == SyncNever {
		return nil
	}
	if j.opts.SyncFault != nil {
		if err := j.opts.SyncFault(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if j.opts.OnFsync != nil {
		j.opts.OnFsync(time.Since(start))
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if j.opts.OnFsync != nil {
		j.opts.OnFsync(time.Since(start))
	}
	return nil
}

// Compact atomically replaces the journal's contents with exactly the
// live records: they are rewritten (keeping their Seq and At) to a
// temporary file in the same directory, fsync'd, and renamed over the
// old log. Dead records — checkpoints of finished jobs, state
// transitions subsumed by a final state — are how the log stays
// bounded; the caller decides what is live.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal: compact temp: %w", err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	maxSeq := j.seq
	for _, rec := range live {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return fail(fmt.Errorf("journal: compact marshal: %w", err))
		}
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		if _, err := tmp.Write(hdr[:]); err != nil {
			return fail(fmt.Errorf("journal: compact write: %w", err))
		}
		if _, err := tmp.Write(payload); err != nil {
			return fail(fmt.Errorf("journal: compact write: %w", err))
		}
	}
	start := time.Now()
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("journal: compact fsync: %w", err))
	}
	if j.opts.OnFsync != nil {
		j.opts.OnFsync(time.Since(start))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("journal: compact close: %w", err))
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	syncDir(dir)
	old := j.f
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: seek after compact: %w", err)
	}
	j.f = f
	old.Close()
	j.seq = maxSeq
	j.off = end
	j.appends = 0
	j.compacted++
	// The live records now sit in a fresh, fully synced file: whatever
	// append failure degraded the journal has been written around.
	j.degraded = false
	return nil
}

// syncDir fsyncs a directory so a rename is durable; errors are
// ignored (not all filesystems support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}

// AppendsSinceCompact counts records appended since Open or the last
// Compact — the caller's compaction trigger.
func (j *Journal) AppendsSinceCompact() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Compactions counts completed compactions over the journal's lifetime.
func (j *Journal) Compactions() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compacted
}

// Close syncs and closes the file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("journal: close sync: %w", serr)
	}
	return cerr
}
