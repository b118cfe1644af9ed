package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynaspam/internal/runner"
)

// writeFiles creates each named file in dir with its content.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirNames lists dir's file names in order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestOneFilePerJob: a done job, a job cancelled while queued and a failed
// job each leave exactly one file, and the done job's file reads as a plain
// run journal with exactly one entry per cell — what the serve-jobs
// benchmark reads back.
func TestOneFilePerJob(t *testing.T) {
	dir := t.TempDir()
	// The failed job: a spec this build cannot resolve, found at startup.
	writeFiles(t, dir, map[string]string{"job-000001.runs.jsonl": `{"spec":{"bench":"NOPE"}}` + "\n"})
	p, _ := newTestPlane(t, dir, 1)
	done, err := p.Submit(Spec{Bench: "BP,NW,PF"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.Submit(Spec{Bench: "PF"})
	if err != nil {
		t.Fatal(err)
	}
	p.Cancel(queued)
	for id, want := range map[string]string{"job-000001": StateFailed, done: StateDone, queued: StateCancelled} {
		if v := await(t, p, id); v.State != want {
			t.Fatalf("%s: state %s (%s), want %s", id, v.State, v.Error, want)
		}
	}

	want := []string{"job-000001.runs.jsonl", done + ".runs.jsonl", queued + ".runs.jsonl"}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("state dir holds %v, want one file per job %v", got, want)
	}
	f, err := os.Open(filepath.Join(dir, done+".runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := runner.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for _, e := range entries {
		if e.Status != runner.StatusOK {
			t.Errorf("entry %+v is not ok", e)
		}
		seqs = append(seqs, e.Seq)
	}
	if slices.Sort(seqs); !reflect.DeepEqual(seqs, []int{0, 1, 2}) {
		t.Errorf("done job journals seqs %v, want exactly one entry per cell [0 1 2]", seqs)
	}
}

// TestOversizedSpecRejected: a spec whose record would not fit on one
// journal line — a bench padded with spaces, which Resolve trims — is
// refused with a 400 and leaves no file, so the next start recovers; as
// the job file's first line, runner.ReadJournal could not read it back. A
// spec whose record is the longest line the journal reads is accepted and
// recovered.
func TestOversizedSpecRejected(t *testing.T) {
	dir := t.TempDir()
	p, _, h := mountedPlane(t, dir, 1)
	const wrap = len(`{"spec":{"bench":""}}`)
	longest := Spec{Bench: "PF" + strings.Repeat(" ", runner.MaxLineBytes-1-wrap-2)}
	over := Spec{Bench: longest.Bench + " "}
	body, _ := json.Marshal(over)
	if rec := doJSON(t, h, "POST", "/jobs", string(body), nil); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "journal line limit") {
		t.Fatalf("POST /jobs with a %d-byte spec = %d %.200q, want 400 naming the journal line limit", len(body), rec.Code, rec.Body.String())
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Fatalf("a refused spec left %v", names)
	}
	eph, _ := newTestPlane(t, "", 1)
	if _, err := eph.Submit(over); err == nil {
		t.Error("an ephemeral plane accepted a spec too long to journal")
	}

	id, err := p.Submit(longest)
	if err != nil {
		t.Fatalf("a spec whose record is %d bytes: %v", runner.MaxLineBytes-1, err)
	}
	if v := await(t, p, id); v.State != StateDone {
		t.Fatalf("job = %s (%s), want done", v.State, v.Error)
	}
	p2, _ := newTestPlane(t, dir, 1)
	if v, ok := p2.Get(id); !ok || v.State != StateDone || v.Bench != longest.Bench {
		t.Errorf("after restart %s = %s (found %v), want done with its spec", id, v.State, ok)
	}
}

// TestRecoverJobFiles covers recovery of damaged job files and of state
// directories in the older three-file layout (<id>.spec.json,
// <id>.runs.jsonl, <id>.state.json), which are read but never written.
func TestRecoverJobFiles(t *testing.T) {
	entryBP, _ := json.Marshal(runner.Entry{Sweep: "job-000001", Seq: 0, Label: "BP/accel-spec", Status: runner.StatusOK, WallMS: 1})
	failsNamingJob := func(t *testing.T, dir string) {
		p, err := New(Config{Dir: dir, Log: testLogger()})
		if err == nil {
			p.Shutdown(t.Context())
			t.Fatal("a damaged job file recovered")
		}
		if !strings.Contains(err.Error(), "job-000001") {
			t.Errorf("recovery error %q does not name the job", err)
		}
	}
	for _, tc := range []struct {
		name  string
		files map[string]string
		check func(t *testing.T, dir string)
	}{{
		name:  "torn terminal record resumes the job",
		files: map[string]string{"job-000001.runs.jsonl": `{"spec":{"bench":"PF"}}` + "\n" + `{"terminal":{"state":"do`},
		check: func(t *testing.T, dir string) {
			p, _ := newTestPlane(t, dir, 1)
			v := await(t, p, "job-000001")
			if v.State != StateDone || v.Done != 1 || v.Cells[0].Source != SourceRun {
				t.Fatalf("job = %s %d/%d cells %+v, want resumed as interrupted and run to done", v.State, v.Done, v.Total, v.Cells)
			}
			// The resumed job's lines did not fuse with the torn one, so the
			// next start reads its terminal record.
			p2, _ := newTestPlane(t, dir, 1)
			if v, ok := p2.Get("job-000001"); !ok || v.State != StateDone {
				t.Errorf("after restart: job = %v %s (%s), want done", ok, v.State, v.Error)
			}
		},
	}, {
		name:  "torn spec line fails recovery",
		files: map[string]string{"job-000001.runs.jsonl": `{"spec":{"bench":"P`},
		check: failsNamingJob,
	}, {
		name:  "bad line before the last fails recovery",
		files: map[string]string{"job-000001.runs.jsonl": `{"spec":{"bench":"PF"}}` + "\nnot json\n" + `{"terminal":{"state":"done"}}` + "\n"},
		check: failsNamingJob,
	}, {
		name: "three-file cancelled job stays cancelled",
		files: map[string]string{
			"job-000001.spec.json":  `{"bench":"PF"}` + "\n",
			"job-000001.state.json": `{"state":"cancelled","error":"cancelled before start"}` + "\n",
		},
		check: func(t *testing.T, dir string) {
			p, _ := newTestPlane(t, dir, 1)
			v, ok := p.Get("job-000001")
			if !ok || v.State != StateCancelled || v.Error != "cancelled before start" || v.Done != 0 {
				t.Fatalf("job = %v %s (%q) %d cells done, want cancelled history", ok, v.State, v.Error, v.Done)
			}
			if _, misses, _ := p.cache.Stats(); misses != 0 {
				t.Errorf("cancelled job re-ran %d cells", misses)
			}
			if got, want := dirNames(t, dir), []string{"job-000001.spec.json", "job-000001.state.json"}; !reflect.DeepEqual(got, want) {
				t.Errorf("state dir holds %v, want the three-file layout untouched %v", got, want)
			}
		},
	}, {
		name: "three-file interrupted job resumes and then loads done",
		files: map[string]string{
			"job-000001.spec.json":  `{"bench":"BP,PF"}` + "\n",
			"job-000001.runs.jsonl": string(entryBP) + "\n",
		},
		check: func(t *testing.T, dir string) {
			p, _ := newTestPlane(t, dir, 1)
			if v := await(t, p, "job-000001"); v.State != StateDone || v.Cells[0].Source != SourceJournal || v.Cells[1].Source != SourceRun {
				t.Fatalf("resumed job = %s cells %+v, want done with BP from the journal", v.State, v.Cells)
			}
			p2, _ := newTestPlane(t, dir, 1)
			if v, ok := p2.Get("job-000001"); !ok || v.State != StateDone || v.Bench != "BP,PF" {
				t.Errorf("after restart: job = %v %s bench %q, want done BP,PF", ok, v.State, v.Bench)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFiles(t, dir, tc.files)
			tc.check(t, dir)
		})
	}
}

// FuzzParseJobFile: the job-file reader never panics, and a file built from
// a spec record, cell entries, an optional terminal record and an optional
// torn tail — a strict prefix of a terminal record or of an entry — reads
// back as exactly that spec, those entries and that terminal record. A
// torn terminal record is dropped.
func FuzzParseJobFile(f *testing.F) {
	f.Add([]byte(`{"spec":{"bench":"PF"}}`+"\n"), "accel-spec", uint8(2), uint8(1), uint16(0))
	f.Add([]byte("BP,PF"), "", uint8(0), uint8(4), uint16(17))
	f.Add([]byte(`{"terminal":{"state":"done"}}`), "baseline", uint8(5), uint8(2), uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, mode string, cells, kind uint8, cut uint16) {
		parseJobFile(data)

		spec := Spec{Bench: strings.ToValidUTF8(string(data), "?"), Mode: strings.ToValidUTF8(mode, "?"), TraceLen: int(cut)}
		var buf bytes.Buffer
		j := runner.NewJournal(&buf)
		j.WriteRecord(jobRecord{Spec: &spec})
		var entries []runner.Entry
		for i := 0; i < int(cells%8); i++ {
			e := runner.Entry{Sweep: "job", Seq: i, Label: spec.Mode, Status: runner.StatusOK, WallMS: float64(i) / 2}
			j.Write(e)
			entries = append(entries, e)
		}
		var term *terminalState
		if kind&1 == 1 {
			term = &terminalState{State: []string{StateDone, StateFailed, StateCancelled}[cut%3], Error: spec.Bench}
			j.WriteRecord(jobRecord{Terminal: term})
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var torn []byte
		switch (kind >> 1) % 3 {
		case 1:
			torn, _ = json.Marshal(jobRecord{Terminal: &terminalState{State: StateDone}})
		case 2:
			torn, _ = json.Marshal(runner.Entry{Seq: 99, Label: "torn", Status: runner.StatusOK})
		}
		if len(torn) > 0 {
			buf.Write(torn[:int(cut)%len(torn)])
		}

		r, err := parseJobFile(buf.Bytes())
		if err != nil {
			t.Fatalf("parseJobFile: %v\n%s", err, buf.Bytes())
		}
		if r.spec == nil || *r.spec != spec {
			t.Errorf("spec = %+v, want %+v", r.spec, spec)
		}
		if len(r.entries) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(r.entries, entries)) {
			t.Errorf("entries = %+v, want %+v", r.entries, entries)
		}
		if !reflect.DeepEqual(r.terminal, term) {
			t.Errorf("terminal = %+v, want %+v", r.terminal, term)
		}
	})
}
