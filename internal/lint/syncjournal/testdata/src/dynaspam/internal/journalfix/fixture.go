// Package journalfix exercises syncjournal: a local journal type whose
// constructor is enrolled with //lint:journal, mirroring the real
// runner.Journal API surface (Write/WriteRecord/Flush/Close/SetSync).
package journalfix

type entry struct {
	Cell int
	OK   bool
}

type journal struct {
	sync bool
	buf  []entry
}

// newJournal constructs a buffered journal.
//
//lint:journal
func newJournal() *journal { return &journal{} }

func (j *journal) SetSync(on bool) { j.sync = on }
func (j *journal) Write(e entry) error {
	j.buf = append(j.buf, e)
	return nil
}
func (j *journal) WriteRecord(v any) error { return nil }
func (j *journal) Flush() error            { return nil }
func (j *journal) Close() error            { return nil }

// buffered writes and returns without ever flushing: a crash between the
// write and process exit loses the entry.
func buffered(cell int) {
	j := newJournal()
	j.Write(entry{Cell: cell}) // want `buffered journal write can reach return without Flush`
}

// branchMiss flushes on the happy path but the early return skips it.
func branchMiss(cells []int, stop bool) {
	j := newJournal()
	for _, c := range cells {
		j.Write(entry{Cell: c}) // want `buffered journal write can reach return without Flush`
		if stop {
			return
		}
	}
	j.Flush()
}

// recordMiss closes on the happy path, but a record written before the
// early return is never flushed.
func recordMiss(spec string, fail bool) error {
	j := newJournal()
	j.WriteRecord(spec) // want `buffered journal write can reach return without Flush`
	if fail {
		return nil
	}
	return j.Close()
}

// recordClosed closes after the record on every path.
func recordClosed(spec string) error {
	j := newJournal()
	j.WriteRecord(spec)
	return j.Close()
}

// flushed discharges the write on every path before returning.
func flushed(cell int) {
	j := newJournal()
	j.Write(entry{Cell: cell})
	j.Flush()
}

// deferredClose relies on defer, which runs on every path.
func deferredClose(cells []int) {
	j := newJournal()
	defer j.Close()
	for _, c := range cells {
		j.Write(entry{Cell: c})
	}
}

// syncMode switches the journal to write-through before writing; every
// Write then flushes itself.
func syncMode(cell int) {
	j := newJournal()
	j.SetSync(true)
	j.Write(entry{Cell: cell})
}

// escapes hands the journal to the caller, who owns flushing it.
func escapes(cell int) *journal {
	j := newJournal()
	j.Write(entry{Cell: cell})
	return j
}
