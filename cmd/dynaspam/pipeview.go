package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dynaspam/internal/probe"
)

// runPipeview implements `dynaspam pipeview`: render a Konata-style
// pipeline view written by `dynaspam -pipeview` as an ASCII timeline in
// the terminal.
//
//	dynaspam -bench NW -pipeview nw.kanata
//	dynaspam pipeview nw.kanata                      # render around the first squash
//	dynaspam pipeview -from 1200 -cycles 120 nw.kanata
//	dynaspam pipeview -validate nw.kanata            # parse-only (CI smoke check)
//
// Each row is one instruction (or trace invocation, labelled "trace ...");
// each column is one cycle. Stage occupancy prints the stage's mnemonic
// letter(s) — F fetch, Is issue, WB writeback for host instructions; Q
// queued, Ex evaluating, Dn done for invocations — and the row ends with
// `*` at commit or `!` at a squash-flush.
//
// With -validate, the file is parsed with the same strict reader the tests
// use and nothing is rendered; the exit status reports validity.
func runPipeview(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynaspam pipeview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		from     = fs.Int64("from", -1, "first cycle to render (-1 = auto: around the first flush, else the start)")
		cycles   = fs.Int("cycles", 80, "number of cycles (columns) to render")
		maxRows  = fs.Int("rows", 64, "maximum instructions (rows) to render")
		validate = fs.Bool("validate", false, "parse the file and exit (0 = valid)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dynaspam pipeview [flags] <file.kanata>")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	runs, err := probe.ParsePipeView(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *validate {
		total := 0
		for _, run := range runs {
			total += len(run.Insts)
		}
		fmt.Fprintf(stdout, "valid: %d run(s), %d record(s)\n", len(runs), total)
		return 0
	}
	for _, run := range runs {
		renderPipeRun(stdout, run, *from, *cycles, *maxRows)
	}
	return 0
}

// renderPipeRun prints one run's window as an ASCII pipeline diagram.
func renderPipeRun(out io.Writer, run probe.PipeRun, from int64, ncols, maxRows int) {
	if run.Name != "" {
		fmt.Fprintf(out, "== %s ==\n", run.Name)
	}
	if len(run.Insts) == 0 {
		fmt.Fprintln(out, "(no records)")
		return
	}
	start := uint64(0)
	if from >= 0 {
		start = uint64(from)
	} else if c, ok := firstFlush(run); ok {
		// Auto-window: lead in to the first squash so its cause is visible.
		if c > uint64(ncols)/2 {
			start = c - uint64(ncols)/2
		}
	}
	end := start + uint64(ncols)

	fmt.Fprintf(out, "cycles %d..%d (render more with -from/-cycles)\n", start, end-1)
	rows := 0
	for _, in := range run.Insts {
		if len(in.Stages) == 0 || !overlaps(in, start, end) {
			continue
		}
		if rows >= maxRows {
			fmt.Fprintf(out, "... (%d more rows; narrow with -from)\n", len(run.Insts)-rows)
			break
		}
		rows++
		fmt.Fprintln(out, renderRow(in, start, end))
	}
	if rows == 0 {
		fmt.Fprintln(out, "(no activity in window; try -from 0)")
	}
}

// rowEnd returns the cycle a record's last stage gives way (retire cycle,
// or the last stage start + 1 for records cut off by end of simulation).
func rowEnd(in probe.PipeInst) uint64 {
	if in.Done {
		if in.Retired > in.Stages[len(in.Stages)-1].Start {
			return in.Retired
		}
	}
	return in.Stages[len(in.Stages)-1].Start + 1
}

func overlaps(in probe.PipeInst, start, end uint64) bool {
	return in.Stages[0].Start < end && rowEnd(in) >= start
}

// renderRow draws one record: stage mnemonics per cycle, retire marker,
// then the label.
func renderRow(in probe.PipeInst, start, end uint64) string {
	var b strings.Builder
	for c := start; c < end; c++ {
		b.WriteString(cellAt(in, c))
	}
	marker := " "
	if in.Done && in.Retired >= start && in.Retired < end {
		if in.Flushed {
			marker = "!"
		} else {
			marker = "*"
		}
	}
	return fmt.Sprintf("%s%s %5d %s", b.String(), marker, in.Seq, in.Label)
}

// cellAt gives the one-character cell for a record at cycle c: the first
// letter of the active stage, or '.' outside the record's lifetime.
func cellAt(in probe.PipeInst, c uint64) string {
	if c < in.Stages[0].Start || c >= rowEnd(in) {
		return "."
	}
	active := in.Stages[0].Name
	for _, st := range in.Stages {
		if st.Start > c {
			break
		}
		active = st.Name
	}
	return active[:1]
}

// firstFlush finds the earliest flush retire cycle in the run.
func firstFlush(run probe.PipeRun) (uint64, bool) {
	found := false
	var min uint64
	for _, in := range run.Insts {
		if in.Done && in.Flushed && (!found || in.Retired < min) {
			min, found = in.Retired, true
		}
	}
	return min, found
}
