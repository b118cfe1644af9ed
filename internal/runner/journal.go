package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Entry statuses. A sweep that finishes cleanly journals StatusOK for every
// run; StatusSkipped marks runs cancelled by an earlier failure.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusPanic   = "panic"
	StatusSkipped = "skipped"
)

// Entry is one journal record: a single finished (or skipped) run. Entries
// serialize as one JSON object per line, in completion order; Seq gives the
// run's position in sweep input order, so a journal can be re-sorted into
// deterministic order offline.
type Entry struct {
	// Sweep names the sweep the run belongs to (e.g. "fig8").
	Sweep string `json:"sweep,omitempty"`
	// Seq is the run's input-order index within its sweep.
	Seq int `json:"seq"`
	// Label identifies the cell, e.g. "BP/accel-spec".
	Label string `json:"label"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// WallMS is the run's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Error holds the failure message for non-ok runs.
	Error string `json:"error,omitempty"`
	// Metrics carries domain measurements (cycles, IPC, counters, golden
	// verification status, ...) provided by the result's Metricser. Keys
	// are emitted in sorted order, so entries are byte-stable.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Journal writes run records as JSON lines to an underlying writer. It is
// safe for concurrent use by the runner's workers; each Entry becomes
// exactly one line. The zero value is not usable; construct with NewJournal
// or OpenJournal.
//
// Every Write hands its whole line, newline included, to the underlying
// writer in one Write call before it returns. A journal file therefore
// holds every finished cell the moment the cell's entry is written, so a
// killed process loses at most the cells still in flight and a restarted
// one can resume from the file (see ReadJournal); and a concurrent tailer —
// the telemetry plane's SSE endpoint, `tail -f` — never sees a torn JSON
// line. The cost is one small write per cell, which is noise next to a
// simulation cell's runtime.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	owned io.Closer // non-nil when the journal opened the file itself
	err   error     // first write error, reported by Close
}

// MaxLineBytes bounds a journal line, newline included: ReadJournal reads
// no longer line, so Write and WriteRecord refuse to write one.
const MaxLineBytes = 1 << 20

// NewJournal returns a journal writing to w. The caller retains ownership
// of w; Close does not close it.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenJournal creates (or truncates) the file at path and returns a journal
// writing to it. Close closes the file.
func OpenJournal(path string) (*Journal, error) { return openJournal(path, os.O_TRUNC) }

// OpenJournalAppend opens (creating if absent) the file at path in append
// mode and returns a journal writing to it. A resumed sweep uses this so
// the entries of its earlier, interrupted attempts are preserved; Close
// closes the file.
func OpenJournalAppend(path string) (*Journal, error) { return openJournal(path, os.O_APPEND) }

// openJournal opens path with flag. A last line that a crash left without
// its newline is first completed if it parses, or cut off if torn, so the
// next line written starts on its own.
func openJournal(path string, flag int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	size, _ := f.Seek(0, io.SeekEnd) // 0 for a pipe, which has no last line
	b := []byte{'\n'}
	if size > 0 {
		_, err = f.ReadAt(b, size-1)
	}
	if err == nil && b[0] != '\n' {
		b = make([]byte, size)
		_, err = f.ReadAt(b, 0)
		start := bytes.LastIndexByte(b, '\n') + 1
		if err == nil && json.Unmarshal(b[start:], new(Entry)) == nil {
			_, err = f.Write([]byte{'\n'})
		} else if err == nil {
			err = f.Truncate(int64(start))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	return &Journal{w: f, owned: f}, nil
}

// Write appends one entry as a JSON line. Marshal or write failures, a
// line over MaxLineBytes among them, are sticky: the first one is
// remembered and returned from every subsequent Write and from Close, so a
// sweep is not aborted by observability I/O.
func (j *Journal) Write(e Entry) error { return j.WriteRecord(e) }

// WriteRecord appends any JSON value as a line; ReadJournal skips it unless
// it has a status.
func (j *Journal) WriteRecord(v any) error {
	b, err := json.Marshal(v)
	return j.writeLine(b, err)
}

// WriteEncoded appends b, one JSON value as json.Marshal encodes it, as a
// line, with WriteRecord's limit and sticky errors. A caller that already
// holds a record's encoding writes it with this rather than encoding it
// again; the journal may append the newline in b's spare capacity.
func (j *Journal) WriteEncoded(b []byte) error { return j.writeLine(b, nil) }

// writeLine appends b and a newline unless marshalling b failed (err) or
// the line would exceed MaxLineBytes.
func (j *Journal) writeLine(b []byte, err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err == nil && len(b) >= MaxLineBytes {
		err = fmt.Errorf("line of %d bytes exceeds the %d-byte limit", len(b)+1, MaxLineBytes)
	}
	if err != nil {
		j.err = fmt.Errorf("runner: journal marshal: %w", err)
		return j.err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = fmt.Errorf("runner: journal write: %w", err)
		return j.err
	}
	return nil
}

// Close releases the underlying file if the journal owns one, and returns
// the first error encountered over the journal's lifetime.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.owned != nil {
		if err := j.owned.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.owned = nil
	}
	return j.err
}

// ReadJournal parses a JSON-lines run journal back into its entries, in
// file (completion) order. It is the replay half of the checkpoint story:
// the jobs plane reads a crashed sweep's journal on startup and resumes at
// the first cell with no StatusOK entry.
//
// A record without a status is not an entry and is skipped, wherever it
// sits: the jobs plane's spec and terminal records are such records.
//
// Blank lines are skipped. A malformed *final* line is tolerated and
// dropped — a process killed mid-write can leave a torn last line, and
// losing the in-flight record is exactly the semantics resume wants.
// Malformed lines anywhere earlier are real corruption and return an
// error alongside the entries parsed so far, as does a line longer than
// MaxLineBytes.
func ReadJournal(r io.Reader) ([]Entry, error) {
	entries, _, err := ReadJournalRecords(r)
	return entries, err
}

// ReadJournalRecords is ReadJournal that also returns, undecoded and in
// file order, the records it skips for having no status.
func ReadJournalRecords(r io.Reader) (entries []Entry, other []json.RawMessage, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	var (
		badLine int // 1-based line number of the first malformed line
		badErr  error
	)
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if badErr != nil {
			// A parseable line after a malformed one: the damage was not
			// a torn tail, so it is corruption.
			return entries, other, fmt.Errorf("runner: journal line %d: %w", badLine, badErr)
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			badLine, badErr = n, err
			continue
		}
		if e.Status == "" {
			other = append(other, bytes.Clone(line))
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return entries, other, fmt.Errorf("runner: journal read: %w", err)
	}
	// badErr still set here means the malformed line was the last one:
	// treat it as a torn in-flight write and drop it silently.
	return entries, other, nil
}

// Completed reduces journal entries to a per-seq completion mask for a
// sweep of total cells: mask[seq] is true when some entry recorded seq
// finishing with StatusOK. Entries for other statuses (error, panic,
// skipped) leave the cell incomplete so a resume re-attempts it; entries
// with out-of-range seqs are ignored.
func Completed(entries []Entry, total int) []bool {
	mask := make([]bool, total)
	for _, e := range entries {
		if e.Status == StatusOK && e.Seq >= 0 && e.Seq < total {
			mask[e.Seq] = true
		}
	}
	return mask
}
