package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunResumeSkipsCompletedCells(t *testing.T) {
	const n = 9
	completed := make([]bool, n)
	completed[0], completed[3], completed[8] = true, true, true

	var ran atomic.Int32
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("cell/%d", i),
			Run: func(ctx context.Context) (int, error) {
				ran.Add(1)
				return i * i, nil
			},
		}
	}

	var buf bytes.Buffer
	j := NewJournal(&buf)
	out, err := RunResume(context.Background(), Options{Parallelism: 3, Journal: j, Name: "res"}, jobs, completed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := int(ran.Load()); got != n-3 {
		t.Errorf("ran %d cells, want %d (completed cells must not re-run)", got, n-3)
	}
	for i, v := range out {
		want := i * i
		if completed[i] {
			want = 0 // skipped cells keep the zero value
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}

	// Journal holds only the newly-run cells, under their original seqs.
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n-3 {
		t.Fatalf("journal has %d entries, want %d", len(entries), n-3)
	}
	seen := make(map[int]bool)
	for _, e := range entries {
		if completed[e.Seq] {
			t.Errorf("journal re-recorded completed cell seq %d", e.Seq)
		}
		if e.Label != fmt.Sprintf("cell/%d", e.Seq) {
			t.Errorf("seq %d journaled with label %q", e.Seq, e.Label)
		}
		seen[e.Seq] = true
	}
	if len(seen) != n-3 {
		t.Errorf("journal covers %d distinct seqs, want %d", len(seen), n-3)
	}
}

func TestRunResumeMaskLengthMismatch(t *testing.T) {
	_, err := RunResume(context.Background(), Options{}, squareJobs(3, nil), []bool{true})
	if err == nil || !strings.Contains(err.Error(), "resume mask") {
		t.Fatalf("err = %v, want resume-mask length error", err)
	}
}

func TestRunResumeAllCompleted(t *testing.T) {
	var ran atomic.Int32
	jobs := squareJobs(4, &ran)
	completed := []bool{true, true, true, true}
	rep := &recordingReporter{}
	out, err := RunResume(context.Background(), Options{Reporter: rep, Name: "noop"}, jobs, completed)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 0 {
		t.Errorf("ran %d cells, want 0", ran.Load())
	}
	if len(out) != 4 {
		t.Errorf("len(out) = %d, want 4", len(out))
	}
	if len(rep.starts) != 1 || len(rep.ends) != 1 {
		t.Errorf("fully-resumed sweep must still bracket the reporter (starts=%v ends=%v)", rep.starts, rep.ends)
	}
	if len(rep.entries) != 0 {
		t.Errorf("fully-resumed sweep reported %d RunDone callbacks, want 0", len(rep.entries))
	}
}

func TestReadJournalRoundTripAndCompleted(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	for i := 0; i < 5; i++ {
		status := StatusOK
		if i == 2 {
			status = StatusError
		}
		if err := j.Write(Entry{Sweep: "s", Seq: i, Label: fmt.Sprintf("c/%d", i), Status: status}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("replayed %d entries, want 5", len(entries))
	}
	mask := Completed(entries, 5)
	want := []bool{true, true, false, true, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("mask[%d] = %v, want %v (error entries must not count as complete)", i, mask[i], want[i])
		}
	}
}

func TestReadJournalToleratesTornLastLine(t *testing.T) {
	in := `{"seq":0,"label":"a","status":"ok","wall_ms":1}
{"seq":1,"label":"b","status":"ok","wall_ms":1}
{"seq":2,"label":"c","st`
	entries, err := ReadJournal(strings.NewReader(in))
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2 (torn tail dropped)", len(entries))
	}
}

func TestReadJournalRejectsMidFileCorruption(t *testing.T) {
	in := `{"seq":0,"label":"a","status":"ok"}
not json at all
{"seq":2,"label":"c","status":"ok"}
`
	entries, err := ReadJournal(strings.NewReader(in))
	if err == nil {
		t.Fatal("mid-file corruption must be reported")
	}
	if len(entries) != 1 {
		t.Errorf("replayed %d entries before corruption, want 1", len(entries))
	}
}

// TestSyncJournalWritesThroughPerCell is the kill-mid-sweep regression
// lock: every cell's entry must be on the underlying file the moment the
// cell completes — not at Close — so a SIGKILL between cells can never
// lose a finished cell. The sweep is
// gated cell by cell and the on-disk journal is re-read after each
// completion, simulating a reader (or a restarted process) observing the
// file at an arbitrary kill point.
func TestSyncJournalWritesThroughPerCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	step := make(chan struct{})    // gates each cell's completion
	written := make(chan struct{}) // signals the main goroutine to inspect
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("cell/%d", i),
			Run: func(ctx context.Context) (int, error) {
				<-step
				return i, nil
			},
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Options{Parallelism: 1, Journal: j}, jobs)
		close(written)
		done <- err
	}()

	for i := 0; i < n; i++ {
		step <- struct{}{}
		// The next cell cannot complete until we send on step again, so
		// once cell i's entry is observable the count must be exactly i+1.
		waitForJournalLines(t, path, i+1)
	}
	<-written
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitForJournalLines polls path until it holds want parseable entries
// (the journal's writes race only with the file write itself).
func waitForJournalLines(t *testing.T, path string, want int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		b, err := os.ReadFile(path)
		if err == nil {
			entries, err := ReadJournal(bytes.NewReader(b))
			if err == nil && len(entries) >= want {
				if len(entries) > want {
					t.Fatalf("journal has %d entries before cell %d was released", len(entries), want)
				}
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("journal never reached %d durable entries", want)
}
