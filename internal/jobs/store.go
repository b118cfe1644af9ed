package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dynaspam/internal/runner"
)

// The state directory holds one file per job, <id>.runs.jsonl: a run
// journal whose first line is the spec record {"spec":{…}}, written before
// POST /jobs replies 202, and whose last, once the job ends, is the terminal
// record {"terminal":{…}}. Between them the run journal appends one entry
// per finished cell, on the file before the cell's worker moves on.
// runner.ReadJournal skips the two records, which have no status. A job
// without a terminal record was interrupted, and resumes at its first
// unfinished cell. A directory written before one file per job also holds
// <id>.spec.json and <id>.state.json: read, never written.

// terminalState is the terminal record's payload.
type terminalState struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// jobRecord is a line of a job file that has no status: the spec record or
// the terminal record.
type jobRecord struct {
	Spec     *Spec          `json:"spec,omitempty"`
	Terminal *terminalState `json:"terminal,omitempty"`
}

// store persists job state under dir. A nil store (ephemeral mode, no
// -state flag) skips all persistence: jobs run fine but do not survive a
// restart and resume from nothing.
type store struct {
	dir string
}

// newStore ensures dir exists and returns a store over it; an empty dir
// returns nil (ephemeral mode).
func newStore(dir string) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	return &store{dir: dir}, nil
}

func (s *store) path(id, ext string) string { return filepath.Join(s.dir, id+ext) }

// openJournal opens the job's file, or returns nil in ephemeral mode.
// create starts the file, for the spec record; otherwise lines are
// appended.
func (s *store) openJournal(id string, create bool) (*runner.Journal, error) {
	if s == nil {
		return nil, nil
	}
	open := runner.OpenJournalAppend
	if create {
		open = runner.OpenJournal
	}
	return open(s.path(id, ".runs.jsonl"))
}

// writeRecord writes the spec record, which starts the job's file, or
// appends the terminal record. A record too long for one journal line is
// refused before the file is touched, in ephemeral mode too: as a spec
// record it would stop every later start at recovery.
func (s *store) writeRecord(id string, rec jobRecord) error {
	b, err := json.Marshal(rec)
	if err == nil && len(b) >= runner.MaxLineBytes {
		err = fmt.Errorf("jobs: job record of %d bytes exceeds the %d-byte journal line limit", len(b)+1, runner.MaxLineBytes)
	}
	if err != nil || s == nil {
		return err
	}
	j, err := s.openJournal(id, rec.Spec != nil)
	if err != nil {
		return err
	}
	j.WriteEncoded(b)
	return j.Close()
}

// recovered is one job found in the state directory on startup.
type recovered struct {
	id       string
	spec     *Spec          // nil only while a job file lacks a spec record
	terminal *terminalState // nil when the job was interrupted
	entries  []runner.Entry // replayed journal, completion order
}

// parseJobFile reads a job file: its cell entries, the spec of its first
// status-less record and the terminal state of its last (nil when that
// record is not one). A torn terminal record is dropped, as runner drops
// any torn last line, so the job reads as interrupted.
func parseJobFile(b []byte) (r recovered, err error) {
	var other []json.RawMessage
	r.entries, other, err = runner.ReadJournalRecords(bytes.NewReader(b))
	var first, last jobRecord
	if len(other) > 0 && json.Unmarshal(other[0], &first) == nil {
		r.spec = first.Spec
	}
	if len(other) > 0 && json.Unmarshal(other[len(other)-1], &last) == nil && last.Terminal != nil && last.Terminal.State != "" {
		r.terminal = last.Terminal
	}
	return r, err
}

// recover scans the state directory and returns every persisted job in
// job-ID order (IDs are zero-padded, so lexicographic order is submission
// order). A damaged line before a job file's last, or a job without a spec,
// fails recovery loudly — an operator must move the damaged file aside —
// but a torn terminal record only degrades that job to interrupted.
func (s *store) recover() ([]recovered, error) {
	if s == nil {
		return nil, nil
	}
	var ids []string
	for _, ext := range []string{".runs.jsonl", ".spec.json"} {
		names, err := filepath.Glob(s.path("*", ext))
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			ids = append(ids, strings.TrimSuffix(filepath.Base(name), ext))
		}
	}
	slices.Sort(ids)
	out := make([]recovered, 0, len(ids))
	for _, id := range slices.Compact(ids) {
		r, err := s.load(id)
		if err != nil {
			return nil, fmt.Errorf("jobs: recover %s: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// load reads one job. In a directory from before one file per job,
// <id>.spec.json supplies a missing spec record and <id>.state.json a
// missing terminal record.
func (s *store) load(id string) (recovered, error) {
	b, err := os.ReadFile(s.path(id, ".runs.jsonl"))
	if err != nil && !os.IsNotExist(err) {
		return recovered{}, err
	}
	r, err := parseJobFile(b)
	r.id = id
	if err == nil && r.spec == nil && (!s.readLegacy(id, ".spec.json", &r.spec) || r.spec == nil) {
		err = fmt.Errorf("no spec record, and no readable %s.spec.json", id)
	}
	var ts terminalState
	if r.terminal == nil && s.readLegacy(id, ".state.json", &ts) && ts.State != "" {
		r.terminal = &ts
	}
	return r, err
}

// readLegacy decodes one of the older layout's JSON files into v,
// reporting whether that worked.
func (s *store) readLegacy(id, ext string, v any) bool {
	b, err := os.ReadFile(s.path(id, ext))
	return err == nil && json.Unmarshal(b, v) == nil
}
