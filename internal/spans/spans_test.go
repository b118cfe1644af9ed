package spans

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dynaspam/internal/probe"
)

// stepClock returns a deterministic clock advancing 1ms per read.
func stepClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestRecorderTree(t *testing.T) {
	r := NewRecorder(0, stepClock())
	root := r.Start(-1, "job", "job job-000001", Label{Key: "job_id", Value: "job-000001"})
	queue := r.Start(root, "lifecycle", "queue-wait")
	r.End(queue)
	cell := r.Start(root, "cell", "cell BP/accel-spec")
	r.Annotate(cell, "status", "ok")
	r.AnchorCycle(cell, "sim-cycle-last", 34227)
	r.End(cell)
	r.End(root)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d spans, want 3", len(snap))
	}
	if snap[0].ID != root || snap[0].Parent != -1 || snap[0].Labels[0].Value != "job-000001" {
		t.Errorf("root span = %+v", snap[0])
	}
	if snap[1].Parent != root || snap[1].End.IsZero() {
		t.Errorf("queue span = %+v", snap[1])
	}
	c := snap[2]
	if c.Cat != "cell" || len(c.Anchors) != 1 || c.Anchors[0].Cycle != 34227 || c.Anchors[0].At.IsZero() {
		t.Errorf("cell span = %+v", c)
	}
	if c.Labels[0] != (Label{Key: "status", Value: "ok"}) {
		t.Errorf("cell labels = %+v", c.Labels)
	}
	// The step clock makes durations exact: queue opened on call 3,
	// closed on call 4.
	if d, ok := r.Duration(queue); !ok || d != time.Millisecond {
		t.Errorf("queue duration = %v, %v", d, ok)
	}
	if _, ok := r.Duration(-1); ok {
		t.Error("Duration(-1) reported ok")
	}

	// Snapshot is a deep copy: mutating it must not leak back.
	snap[0].Labels[0].Value = "tampered"
	if r.Snapshot()[0].Labels[0].Value != "job-000001" {
		t.Error("snapshot shares label memory with the recorder")
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4, stepClock())
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = r.Start(-1, "cell", "s")
		r.End(ids[i])
	}
	if got := droppedSpans(r); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", len(snap))
	}
	// Survivors are the newest spans, IDs stable and ascending.
	for i, sp := range snap {
		if sp.ID != ids[6+i] {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, sp.ID, ids[6+i])
		}
	}
	// Operations on an evicted ID are silent no-ops.
	r.Annotate(ids[0], "k", "v")
	r.End(ids[0])
	if _, ok := r.Duration(ids[0]); ok {
		t.Error("evicted span still reports a duration")
	}
}

// TestRecorderGrowsToCapacity: the ring's storage grows as spans arrive,
// and that is invisible. After every Start, at capacities below, at and
// between the storage's growth steps, the live spans are the newest
// min(started, capacity) in ID order, each with the labels it was given,
// and every older span is dropped.
func TestRecorderGrowsToCapacity(t *testing.T) {
	for _, capacity := range []int{1, initialSlots - 1, initialSlots, initialSlots + 1, 40, DefaultCapacity} {
		r := NewRecorder(capacity, stepClock())
		for n := 1; n <= 2*capacity+3; n++ {
			id := r.Start(-1, "cell", "s", Label{Key: "i", Value: strconv.Itoa(n - 1)})
			r.Annotate(id, "end", strconv.Itoa(n-1))
			if id != n-1 {
				t.Fatalf("cap %d: Start #%d returned ID %d", capacity, n, id)
			}
			snap := r.Snapshot()
			live := min(n, capacity)
			if len(snap) != live || droppedSpans(r) != n-live {
				t.Fatalf("cap %d, %d started: %d live, %d dropped; want %d and %d", capacity, n, len(snap), droppedSpans(r), live, n-live)
			}
			for i, sp := range snap {
				want := strconv.Itoa(n - live + i)
				if sp.ID != n-live+i || len(sp.Labels) != 2 || sp.Labels[0].Value != want || sp.Labels[1].Value != want {
					t.Fatalf("cap %d, %d started: snapshot[%d] = ID %d labels %v, want ID %s", capacity, n, i, sp.ID, sp.Labels, want)
				}
			}
		}
	}
}

// TestRecorderConcurrentGrowth: workers record spans while a reader
// snapshots, so the storage grows under concurrent use (run it with
// -race). Every span ends up recorded once, with its own labels.
func TestRecorderConcurrentGrowth(t *testing.T) {
	const workers, each = 4, 50
	r := NewRecorder(DefaultCapacity, stepClock())
	var wg sync.WaitGroup
	read := make(chan struct{})
	go func() {
		defer close(read)
		for len(r.Snapshot()) < workers*each {
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := strconv.Itoa(w*each + i)
				id := r.Start(-1, "cell", v)
				r.Annotate(id, "v", v)
				r.End(id)
			}
		}()
	}
	wg.Wait()
	<-read
	seen := map[string]bool{}
	for _, sp := range r.Snapshot() {
		if len(sp.Labels) != 1 || sp.Labels[0].Value != sp.Name || sp.End.IsZero() || seen[sp.Name] {
			t.Fatalf("span %d: name %s, labels %v, ended %v, seen before %v", sp.ID, sp.Name, sp.Labels, !sp.End.IsZero(), seen[sp.Name])
		}
		seen[sp.Name] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("recorded %d spans, want %d", len(seen), workers*each)
	}
}

// TestRecorderAllocatesForUse: a job that records six spans pays for the
// first initialSlots of storage, not for the whole DefaultCapacity ring
// (74 KB of spans).
func TestRecorderAllocatesForUse(t *testing.T) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := NewRecorder(DefaultCapacity, stepClock())
		root := r.Start(-1, "job", "job job-000001", Label{Key: "job_id", Value: "job-000001"})
		for _, name := range []string{"queue-wait", "admit", "run", "cell BP/accel-spec", "journal-flush"} {
			r.End(r.Start(root, "lifecycle", name))
		}
		r.End(root)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Errorf("a six-span recorder allocates %d bytes, want under 16 KiB", per)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	id := r.Start(-1, "job", "x")
	if id != -1 {
		t.Fatalf("nil Start = %d, want -1", id)
	}
	r.Annotate(id, "k", "v")
	r.AnchorCycle(id, "a", 1)
	r.End(id)
	if _, ok := r.Duration(id); ok {
		t.Error("nil Duration reported ok")
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder leaked state")
	}
}

// record builds one deterministic job-shaped tree.
func record(t *testing.T) []Span {
	t.Helper()
	r := NewRecorder(0, stepClock())
	root := r.Start(-1, "job", "job job-000001",
		Label{Key: "job_id", Value: "job-000001"}, Label{Key: "run_id", Value: "r1"})
	queue := r.Start(root, "lifecycle", "queue-wait")
	r.End(queue)
	run := r.Start(root, "lifecycle", "run")
	for _, cell := range []string{"BP/accel-spec", "PF/accel-spec"} {
		id := r.Start(run, "cell", "cell "+cell, Label{Key: "cell", Value: cell})
		r.Annotate(id, "source", "run")
		r.AnchorCycle(id, "sim-cycle-first", 0)
		r.AnchorCycle(id, "sim-cycle-last", 34227)
		r.End(id)
	}
	r.End(run)
	r.Annotate(root, "state", "done")
	r.End(root)
	return r.Snapshot()
}

func TestWriteChromeTraceDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, "job-000001", record(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, "job-000001", record(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two recordings render differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	if err := probe.LintChromeTrace(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("span trace fails the chrome lint: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		`"name":"job job-000001"`, `"cat":"cell"`, `"sim-cycle-last":34227`,
		`"name":"sim-cycle-last","ph":"i"`, `"name":"lifecycle"`, `"run_id":"r1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %s:\n%s", want, out)
		}
	}
}

func TestWriteChromeTraceOpenSpans(t *testing.T) {
	r := NewRecorder(0, stepClock())
	root := r.Start(-1, "job", "job j")
	r.Start(root, "lifecycle", "queue-wait") // never ended: in-flight job
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "j", r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := probe.LintChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("in-flight trace fails lint: %v", err)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, "j", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "{\"traceEvents\":[\n") {
		t.Fatalf("framing missing: %q", buf.String())
	}
}

// droppedSpans returns how many spans r's ring has evicted to stay within
// capacity: every span started and no longer live.
func droppedSpans(r *Recorder) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID - r.count
}
