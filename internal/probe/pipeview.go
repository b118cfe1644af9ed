package probe

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Konata-style pipeline-view exporter and parser. The output follows the
// Kanata log format, version 0004 (the format Konata and Kanata-compatible
// viewers read):
//
//	Kanata\t0004          header
//	C=\t<cycle>           set the absolute current cycle
//	C\t<delta>            advance the current cycle
//	I\t<id>\t<seq>\t<tid> declare instruction id (file-order unique)
//	L\t<id>\t0\t<text>    attach a label
//	S\t<id>\t0\t<stage>   instruction enters a stage at the current cycle
//	R\t<id>\t<rid>\t<t>   retire: t=0 commit, t=1 flush
//
// Host instructions ride thread 2*run with stages F (fetch→issue),
// Is (issue→writeback), WB (writeback→commit); trace invocations ride
// thread 2*run+1 with stages Q (inject→evaluate), Ex (evaluating),
// Dn (done, awaiting atomic commit). A flushed record (squashed
// instruction or squashed invocation) retires with type 1.
//
// Cycles restart at zero for every run, so multi-run exports are split
// into sections, each reintroduced by its own "Kanata" header preceded by
// a "#run <name>" comment. Konata itself loads single-run files;
// `dynaspam pipeview` renders any number of sections.

// Kanata stage names used by the writer.
const (
	StageFetch     = "F"
	StageIssue     = "Is"
	StageWriteback = "WB"
	StageQueued    = "Q"
	StageEval      = "Ex"
	StageDone      = "Dn"
)

// pipeOp is one pending output line at a given cycle.
type pipeOp struct {
	cycle uint64
	id    int
	ord   int // generation order within (cycle, id)
	line  string
}

// WritePipeView writes the runs as a Kanata 0004 pipeline view.
func WritePipeView(w io.Writer, runs []TraceRun) error {
	bw := bufio.NewWriter(w)
	for _, run := range runs {
		if err := writePipeRun(bw, run); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writePipeRun(bw *bufio.Writer, run TraceRun) error {
	label := func(pc int) string {
		if run.Disasm != nil {
			if s := run.Disasm(pc); s != "" {
				return s
			}
		}
		return fmt.Sprintf("pc=%d", pc)
	}
	instOrder, invocOrder := buildRecords(run.Events)

	var ops []pipeOp
	ord := 0
	add := func(cycle uint64, id int, format string, a ...any) {
		ops = append(ops, pipeOp{cycle: cycle, id: id, ord: ord, line: fmt.Sprintf(format, a...)})
		ord++
	}
	for i, r := range instOrder {
		id := i
		add(r.fetch, id, "I\t%d\t%d\t0", id, r.seq)
		add(r.fetch, id, "L\t%d\t0\t%s", id, label(r.pc))
		add(r.fetch, id, "S\t%d\t0\t%s", id, StageFetch)
		if r.hasIssue {
			add(r.issue, id, "S\t%d\t0\t%s", id, StageIssue)
		}
		if r.hasWB {
			add(r.wb, id, "S\t%d\t0\t%s", id, StageWriteback)
		}
		if r.hasCommit {
			add(r.commit, id, "R\t%d\t%d\t0", id, id)
		} else {
			add(sliceEnd(r.fetch, r.end), id, "R\t%d\t%d\t1", id, id)
		}
	}
	base := len(instOrder)
	for i, v := range invocOrder {
		id := base + i
		add(v.inject, id, "I\t%d\t%d\t1", id, v.id)
		add(v.inject, id, "L\t%d\t0\ttrace %s (len %d)", id, label(v.startPC), v.numInsts)
		add(v.inject, id, "S\t%d\t0\t%s", id, StageQueued)
		if v.hasEvalStart {
			add(v.evalStart, id, "S\t%d\t0\t%s", id, StageEval)
		}
		if v.hasEval {
			add(v.evalEnd, id, "S\t%d\t0\t%s", id, StageDone)
		}
		switch v.outcome {
		case "committed":
			add(v.end, id, "R\t%d\t%d\t0", id, id)
		default:
			add(sliceEnd(v.inject, v.end), id, "R\t%d\t%d\t1", id, id)
		}
	}

	// Kanata streams are cycle-ordered. Sort by (cycle, id, generation
	// order): declarations precede stages for the same id because they
	// were generated first.
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].cycle != ops[b].cycle {
			return ops[a].cycle < ops[b].cycle
		}
		if ops[a].id != ops[b].id {
			return ops[a].id < ops[b].id
		}
		return ops[a].ord < ops[b].ord
	})

	if _, err := fmt.Fprintf(bw, "#run\t%s\nKanata\t0004\n", run.Name); err != nil {
		return err
	}
	cur := uint64(0)
	started := false
	for _, op := range ops {
		if !started {
			if _, err := fmt.Fprintf(bw, "C=\t%d\n", op.cycle); err != nil {
				return err
			}
			cur, started = op.cycle, true
		} else if op.cycle != cur {
			if _, err := fmt.Fprintf(bw, "C\t%d\n", op.cycle-cur); err != nil {
				return err
			}
			cur = op.cycle
		}
		if _, err := bw.WriteString(op.line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- parser --

// PipeStage is one stage occupancy in a parsed pipeline view.
type PipeStage struct {
	// Name is the stage mnemonic (StageFetch etc.).
	Name string
	// Start is the absolute cycle the stage began.
	Start uint64
}

// PipeInst is one parsed pipeline-view record (instruction or invocation).
type PipeInst struct {
	// ID is the file-order id.
	ID int
	// Seq is the sequence number (instructions) or invocation id.
	Seq uint64
	// TID is the declared thread: 0 pipeline, 1 invocations.
	TID int
	// Label is the attached text, if any.
	Label string
	// Stages are the stage entries in order.
	Stages []PipeStage
	// Retired is the retire cycle; valid when Done.
	Retired uint64
	// Done reports an R line was seen.
	Done bool
	// Flushed reports the record retired by flush (squash).
	Flushed bool
}

// PipeRun is one parsed section of a pipeline view.
type PipeRun struct {
	// Name is the "#run" section name ("" for a bare Kanata stream).
	Name string
	// Insts are the records in declaration order.
	Insts []PipeInst
}

// ParsePipeView parses the Kanata stream written by WritePipeView. It
// accepts any number of "#run"-prefixed sections and validates header,
// cycle monotonicity and line shapes, so tests and `dynaspam pipeview`
// share one strict reader.
func ParsePipeView(r io.Reader) ([]PipeRun, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var runs []PipeRun
	var cur *PipeRun
	byID := make(map[int]int) // id -> index in cur.Insts
	cycle := uint64(0)
	sawHeader := false
	lineNo := 0
	fail := func(format string, a ...any) error {
		return fmt.Errorf("pipeview line %d: %s", lineNo, fmt.Sprintf(format, a...))
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		switch f[0] {
		case "#run":
			runs = append(runs, PipeRun{Name: strings.Join(f[1:], "\t")})
			cur = &runs[len(runs)-1]
			byID = make(map[int]int)
			cycle = 0
			sawHeader = false
			continue
		case "Kanata":
			if len(f) != 2 || f[1] != "0004" {
				return nil, fail("unsupported header %q", line)
			}
			if cur == nil {
				runs = append(runs, PipeRun{})
				cur = &runs[len(runs)-1]
			}
			sawHeader = true
			continue
		}
		if !sawHeader {
			return nil, fail("line before Kanata header: %q", line)
		}
		switch f[0] {
		case "C=":
			v, err := fieldUint(f, 1)
			if err != nil {
				return nil, fail("bad C=: %v", err)
			}
			cycle = v
		case "C":
			v, err := fieldUint(f, 1)
			if err != nil {
				return nil, fail("bad C: %v", err)
			}
			cycle += v
		case "I":
			id, err1 := fieldInt(f, 1)
			seq, err2 := fieldUint(f, 2)
			tid, err3 := fieldInt(f, 3)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad I line %q", line)
			}
			if _, dup := byID[id]; dup {
				return nil, fail("duplicate instruction id %d", id)
			}
			byID[id] = len(cur.Insts)
			cur.Insts = append(cur.Insts, PipeInst{ID: id, Seq: seq, TID: tid})
		case "L":
			id, err := fieldInt(f, 1)
			if err != nil || len(f) < 4 {
				return nil, fail("bad L line %q", line)
			}
			idx, ok := byID[id]
			if !ok {
				return nil, fail("L for undeclared id %d", id)
			}
			cur.Insts[idx].Label = strings.Join(f[3:], "\t")
		case "S":
			id, err := fieldInt(f, 1)
			if err != nil || len(f) < 4 {
				return nil, fail("bad S line %q", line)
			}
			idx, ok := byID[id]
			if !ok {
				return nil, fail("S for undeclared id %d", id)
			}
			inst := &cur.Insts[idx]
			if n := len(inst.Stages); n > 0 && inst.Stages[n-1].Start > cycle {
				return nil, fail("stage %s for id %d goes backward", f[3], id)
			}
			inst.Stages = append(inst.Stages, PipeStage{Name: f[3], Start: cycle})
		case "R":
			id, err1 := fieldInt(f, 1)
			typ, err2 := fieldInt(f, 3)
			if err1 != nil || err2 != nil {
				return nil, fail("bad R line %q", line)
			}
			idx, ok := byID[id]
			if !ok {
				return nil, fail("R for undeclared id %d", id)
			}
			inst := &cur.Insts[idx]
			if inst.Done {
				return nil, fail("double retire for id %d", id)
			}
			inst.Done = true
			inst.Retired = cycle
			inst.Flushed = typ == 1
		default:
			return nil, fail("unknown record %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}

func fieldUint(f []string, i int) (uint64, error) {
	if i >= len(f) {
		return 0, fmt.Errorf("missing field %d", i)
	}
	return strconv.ParseUint(f[i], 10, 64)
}

func fieldInt(f []string, i int) (int, error) {
	if i >= len(f) {
		return 0, fmt.Errorf("missing field %d", i)
	}
	return strconv.Atoi(f[i])
}
