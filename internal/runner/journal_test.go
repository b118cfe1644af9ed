package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReadJournalSkipsRecordsWithoutStatus: a record without a status is
// not an entry wherever it sits — first, between entries or last — and a
// malformed line before the last is still corruption, status-less
// neighbours or not.
func TestReadJournalSkipsRecordsWithoutStatus(t *testing.T) {
	const (
		a    = `{"seq":0,"label":"a","status":"ok"}`
		b    = `{"seq":1,"label":"b","status":"error"}`
		spec = `{"spec":{"bench":"PF"}}`
		term = `{"terminal":{"state":"done"}}`
	)
	for _, tc := range []struct {
		name    string
		in      []string
		labels  []string
		other   []string
		corrupt bool
	}{
		{"first", []string{spec, a, b}, []string{"a", "b"}, []string{spec}, false},
		{"between", []string{a, `{"seq":9,"status":""}`, b}, []string{"a", "b"}, []string{`{"seq":9,"status":""}`}, false},
		{"last", []string{a, b, term}, []string{"a", "b"}, []string{term}, false},
		{"everywhere", []string{spec, a, `{}`, b, term}, []string{"a", "b"}, []string{spec, `{}`, term}, false},
		{"torn last record", []string{spec, a, `{"terminal":{"st`}, []string{"a"}, []string{spec}, false},
		{"bad line mid-file", []string{spec, a, "not json", term}, nil, nil, true},
		{"bad line before a status-less last", []string{a, `{"seq":1,`, spec}, nil, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries, other, err := ReadJournalRecords(strings.NewReader(strings.Join(tc.in, "\n")))
			if tc.corrupt {
				if err == nil {
					t.Fatal("a malformed line before the last must be reported")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var labels, others []string
			for _, e := range entries {
				labels = append(labels, e.Label)
			}
			for _, r := range other {
				others = append(others, string(r))
			}
			if !reflect.DeepEqual(labels, tc.labels) || !reflect.DeepEqual(others, tc.other) {
				t.Errorf("entries %v, other records %v; want %v, %v", labels, others, tc.labels, tc.other)
			}
			plain, err := ReadJournal(strings.NewReader(strings.Join(tc.in, "\n")))
			if err != nil || !reflect.DeepEqual(plain, entries) {
				t.Errorf("ReadJournal = %v (err %v), want the entries of ReadJournalRecords %v", plain, err, entries)
			}
		})
	}
}

// TestJournalLineLimit: the longest line the journal writes, MaxLineBytes
// with its newline, reads back; a longer one is refused, and the refusal
// sticks, so no journal holds a line ReadJournal cannot read.
func TestJournalLineLimit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	longest := `{"a":"` + strings.Repeat("a", MaxLineBytes-len(`{"a":""}`)-1) + `"}`
	if err := j.WriteRecord(json.RawMessage(longest)); err != nil {
		t.Fatalf("a %d-byte record: %v", len(longest), err)
	}
	a := Entry{Seq: 0, Label: "a", Status: StatusOK}
	if err := j.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteRecord(json.RawMessage(longest + " ")); err != nil {
		t.Fatalf("a record that compacts to %d bytes: %v", len(longest), err)
	}
	if err := j.WriteRecord(json.RawMessage(`{"aa` + longest[3:])); err == nil {
		t.Fatalf("a %d-byte record was written", len(longest)+1)
	}
	if err := j.Write(a); err == nil {
		t.Fatal("the refusal did not stick")
	}
	entries, other, err := ReadJournalRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(other) != 2 || string(other[0]) != longest || string(other[1]) != longest {
		t.Errorf("read back %d entries and %d records, want 1 and the two longest lines", len(entries), len(other))
	}
}

// TestOpenJournalAppendEndsLastLine: appending to a journal whose last line
// lacks its newline first ends it the way ReadJournal reads it — a torn
// line is cut off, a whole one is completed — so the appended entry never
// fuses with it into a corrupt line.
func TestOpenJournalAppendEndsLastLine(t *testing.T) {
	const a = `{"seq":0,"label":"a","status":"ok"}`
	for _, tc := range []struct {
		name, in string
		labels   []string
	}{
		{"torn", a + "\n" + `{"seq":1,"label":"b","sta`, []string{"a", "c"}},
		{"whole without newline", a + "\n" + `{"seq":1,"label":"b","status":"ok"}`, []string{"a", "b", "c"}},
		{"torn only line", `{"spec":{"ben`, []string{"c"}},
		{"ends in newline", a + "\n", []string{"a", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "runs.jsonl")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournalAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			j.Write(Entry{Seq: 2, Label: "c", Status: StatusOK})
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := ReadJournal(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("journal after append: %v\n%s", err, b)
			}
			var labels []string
			for _, e := range entries {
				labels = append(labels, e.Label)
			}
			if !reflect.DeepEqual(labels, tc.labels) {
				t.Errorf("labels after append = %v, want %v\n%s", labels, tc.labels, b)
			}
		})
	}
}

// FuzzReadJournal has two properties. On arbitrary bytes ReadJournal never
// panics and returns only entries that have a status. And a journal
// written through Journal.Write — each 0-separated chunk of data one entry,
// or a record without a status when the chunk starts with a multiple of 3
// — plus a torn tail (any strict prefix of one more line) reads back as
// exactly the written entries, in order.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte("ok\x00\x03spec\x00error\x00"), uint16(7))
	f.Add([]byte(`{"seq":0,"label":"a","status":"ok"}`+"\n"+`{"spec":{}}`+"\n"+`{"seq"`), uint16(0))
	f.Add([]byte("\x00\x00\x06\x00skipped"), uint16(40))
	f.Add([]byte("not json\n{}\n"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		entries, other, _ := ReadJournalRecords(bytes.NewReader(data))
		for _, e := range entries {
			if e.Status == "" {
				t.Fatalf("entry without a status: %+v", e)
			}
		}
		for _, r := range other {
			if !json.Valid(r) {
				t.Fatalf("status-less record is not JSON: %q", r)
			}
		}

		var buf bytes.Buffer
		j := NewJournal(&buf)
		var want []Entry
		for i, chunk := range bytes.Split(data, []byte{0}) {
			text := strings.ToValidUTF8(string(chunk), "?")
			if len(chunk) > 0 && chunk[0]%3 == 0 {
				j.WriteRecord(map[string]any{"spec": map[string]string{"bench": text}, "seq": i})
				continue
			}
			e := Entry{Sweep: "fuzz", Seq: i, Label: text, Status: text, WallMS: float64(len(chunk)) / 4}
			if e.Status == "" {
				e.Status = StatusOK
			}
			if len(chunk)%2 == 1 {
				e.Metrics = map[string]float64{text: float64(i)}
			}
			j.Write(e)
			want = append(want, e)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(Entry{Seq: len(want), Label: "torn", Status: StatusOK})
		buf.Write(line[:int(cut)%len(line)])
		got, err := ReadJournal(&buf)
		if err != nil {
			t.Fatalf("ReadJournal: %v", err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("read back %+v, want %+v", got, want)
		}
	})
}
