// Package fixture holds representative control-flow shapes for the flow
// package's golden CFG dumps. It deliberately imports nothing so the tests
// can type-check it without an importer.
package fixture

type journal struct{ bad bool }

func (j *journal) write(s string) {}
func (j *journal) flush()         {}

func setup()         {}
func barrier()       {}
func use()           {}
func sink(v int)     {}
func sink2(p *int)   {}
func consume(p *int) {}

// countdown: three-part for loop.
func countdown(n int) int {
	total := 0
	for i := n; i > 0; i-- {
		total += i
	}
	return total
}

// deferred: defer runs between any return and exit.
func deferred(j *journal) bool {
	defer j.flush()
	j.write("a")
	if j.bad {
		return false
	}
	j.write("b")
	return true
}

// earlyReturn: the early-return branch writes without flushing.
func earlyReturn(j *journal, bad bool) bool {
	if bad {
		j.write("partial")
		return false
	}
	j.write("full")
	j.flush()
	return true
}

// loopFlush: the loop write is flushed after the loop on every path.
func loopFlush(j *journal, n int) {
	for i := 0; i < n; i++ {
		j.write("x")
	}
	j.flush()
}

// selectLoop: infinite for over a select; code after the loop is
// unreachable.
func selectLoop(ch chan int, done chan struct{}) int {
	total := 0
	for {
		select {
		case v := <-ch:
			total += v
		case <-done:
			return total
		}
	}
}

// rangeSum: range loop with continue.
func rangeSum(xs []int) int {
	total := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		total += x
	}
	return total
}

// switchFall: switch with fallthrough and default.
func switchFall(n int) string {
	s := ""
	switch n {
	case 0:
		s = "zero"
		fallthrough
	case 1:
		s += "one"
	default:
		s = "many"
	}
	return s
}

// labeledBreak: nested range loops with a labeled break.
func labeledBreak(grid [][]int, want int) (int, int) {
outer:
	for i := range grid {
		for j := range grid[i] {
			if grid[i][j] == want {
				return i, j
			}
			if grid[i][j] < 0 {
				break outer
			}
		}
	}
	return -1, -1
}

// guarded: barrier() runs on only one branch between setup and use.
func guarded(ok bool) {
	setup()
	if ok {
		barrier()
	}
	use()
}

// guardedAll: barrier() dominates use.
func guardedAll(ok bool) {
	setup()
	if ok {
		barrier()
	} else {
		barrier()
	}
	use()
}

// redefined: two definitions of x reach the sink.
func redefined(flag bool) {
	x := 1
	if flag {
		x = 2
	}
	sink(x)
}

// escapes: one local per escape mode, plus a non-escaping control.
func escapes(ch chan *int) *int {
	addrTaken := 0
	p := &addrTaken
	aliased := p
	other := aliased
	_ = other
	stored := p
	b := struct{ v *int }{v: stored}
	_ = b
	passed := p
	consume(passed)
	returned := p
	if returned != nil {
		sent := p
		ch <- sent
	}
	captured := p
	f := func() { sink2(captured) }
	f()
	localOnly := 7
	sink(localOnly)
	return returned
}
