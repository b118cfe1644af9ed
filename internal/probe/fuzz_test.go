package probe

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzRuns builds event runs in simulation order from fuzz bytes, six per
// event: kind, cycle step, sequence number, pc, A and B. Cycles only move
// forward, in steps of 0-3 so that many events share a cycle; sequence
// numbers come from a small space so that lifecycles collide, repeat and
// arrive out of their usual order. A kind byte of 0xf0 or more starts a
// new run instead (at most four).
func fuzzRuns(data []byte) []TraceRun {
	runs := []TraceRun{{Name: "run0"}}
	var cycle uint64
	for ; len(data) >= 6; data = data[6:] {
		if data[0] >= 0xf0 {
			if len(runs) < 4 {
				runs = append(runs, TraceRun{Name: fmt.Sprintf("run%d", len(runs))})
				cycle = 0
			}
			continue
		}
		cycle += uint64(data[1] % 4)
		run := &runs[len(runs)-1]
		run.Events = append(run.Events, Event{
			Cycle: cycle,
			Seq:   uint64(data[2] % 8),
			PC:    int(int8(data[3])),
			A:     int64(int8(data[4])),
			B:     int64(int8(data[5])),
			Kind:  Kind(data[0]) % numKinds,
		})
	}
	return runs
}

// fuzzSeed encodes events in fuzzRuns' format.
func fuzzSeed(events ...[6]byte) []byte {
	var b []byte
	for _, e := range events {
		b = append(b, e[:]...)
	}
	return b
}

// addProbeSeeds gives both exporter targets one run through every
// instruction and invocation stage, a second run, and a document of each
// format as text.
func addProbeSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeed(
		[6]byte{byte(EvFetch), 1, 1, 7},
		[6]byte{byte(EvIssue), 1, 1, 7},
		[6]byte{byte(EvWriteback), 1, 1, 7},
		[6]byte{byte(EvCommit), 1, 1, 7},
		[6]byte{byte(EvFetch), 0, 2, 8},
		[6]byte{byte(EvSquash), 1, 2},
		[6]byte{byte(EvTraceInject), 1, 1, 7, 9, 12},
		[6]byte{byte(EvTraceEvalStart), 1, 1, 7, 2},
		[6]byte{byte(EvTraceEvalEnd), 3, 1, 7, 4, 12},
		[6]byte{byte(EvTraceSquash), 1, 1, 7},
		[6]byte{byte(EvCPISample), 1, 0, 0, 0, 3},
		[6]byte{byte(EvCPISample), 0, 0, 0, 1, 2},
		[6]byte{0xf0},
		[6]byte{byte(EvFetch), 0, 3, 1},
		[6]byte{byte(EvStripeOcc), 1, 0, 0, 0, 4},
	))
	f.Add([]byte("#run\trt\nKanata\t0004\nC=\t5\nI\t0\t1\t0\nL\t0\t0\tpc=7\nS\t0\t0\tF\nC\t3\nR\t0\t0\t0\n"))
	f.Add([]byte(`{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"r"}},{"name":"x","ph":"X","ts":1,"dur":2,"pid":1,"tid":10}]}`))
}

// FuzzParsePipeView: ParsePipeView never panics, whatever it reads, and
// what WritePipeView writes for event runs built from the same bytes
// parses back: one section per run, under the run's name, with one record
// per fetched instruction and per injected invocation, each retired, and
// flushed exactly when it did not commit.
func FuzzParsePipeView(f *testing.F) {
	addProbeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ParsePipeView(bytes.NewReader(data))

		runs := fuzzRuns(data)
		var buf bytes.Buffer
		if err := WritePipeView(&buf, runs); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParsePipeView(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written view does not parse back: %v\n%s", err, buf.Bytes())
		}
		if len(parsed) != len(runs) {
			t.Fatalf("parsed %d sections, wrote %d runs", len(parsed), len(runs))
		}
		for i, run := range runs {
			insts, invocs := buildRecords(run.Events)
			got := parsed[i]
			if got.Name != run.Name || len(got.Insts) != len(insts)+len(invocs) {
				t.Fatalf("section %d: %q with %d records, want %q with %d", i, got.Name, len(got.Insts), run.Name, len(insts)+len(invocs))
			}
			for _, in := range got.Insts {
				var committed bool
				if in.ID < len(insts) {
					committed = insts[in.ID].hasCommit
				} else {
					committed = invocs[in.ID-len(insts)].outcome == "committed"
				}
				if !in.Done || in.Flushed == committed {
					t.Fatalf("section %d record %d: done %v flushed %v, want retired and flushed %v", i, in.ID, in.Done, in.Flushed, !committed)
				}
			}
		}
	})
}

// FuzzLintChromeTrace: LintChromeTrace never panics, whatever it reads,
// and what WriteChromeTrace writes for event runs built from the same
// bytes lints clean.
func FuzzLintChromeTrace(f *testing.F) {
	addProbeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		LintChromeTrace(bytes.NewReader(data))

		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, fuzzRuns(data)); err != nil {
			t.Fatal(err)
		}
		if err := LintChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("written trace does not lint clean: %v\n%s", err, buf.Bytes())
		}
	})
}
