package ooo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynaspam/internal/interp"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// scanRS is the reference the event-driven scheduler must agree with: the
// full reservation-station scan it replaced. It walks the ROB and returns
// the occupancy (every unissued entry, trace invocations included), the
// non-trace entries whose operands are ready and the trace invocations,
// both in sequence order.
func scanRS(c *CPU) (count int, ready, traces []*ROBEntry) {
	for _, e := range c.rob.live() {
		if e.Issued {
			continue
		}
		count++
		if e.IsTrace() {
			traces = append(traces, e)
			continue
		}
		if (e.PhysSrc1 < 0 || c.regs[e.PhysSrc1].ready) && (e.PhysSrc2 < 0 || c.regs[e.PhysSrc2].ready) {
			ready = append(ready, e)
		}
	}
	return count, ready, traces
}

// seqs renders a list of entries as their sequence numbers.
func seqs(list []*ROBEntry) []uint64 {
	out := make([]uint64, len(list))
	for i, e := range list {
		out[i] = e.Seq
	}
	return out
}

// checkRS compares the scheduler's event-driven state with scanRS and
// checks the slot and wakeup-matrix bookkeeping behind it, then the lists
// and register maps a squash cuts and rebuilds (checkLists).
func checkRS(c *CPU) error {
	count, ready, traces := scanRS(c)
	if c.rsCount != count {
		return fmt.Errorf("rsCount %d, scan counts %d unissued entries", c.rsCount, count)
	}
	if !slices.Equal(c.ready, ready) {
		return fmt.Errorf("ready list %v, scan finds %v", seqs(c.ready), seqs(ready))
	}
	if !slices.Equal(c.rsTraces.live(), traces) {
		return fmt.Errorf("trace list %v, scan finds %v", seqs(c.rsTraces.live()), seqs(traces))
	}
	// Every unissued non-trace entry holds the slot it records, and the
	// used and free slots partition [0, RSSize).
	n := c.cfg.RSSize
	owner := make([]*ROBEntry, n)
	for _, e := range c.rob.live() {
		if e.Issued || e.IsTrace() {
			continue
		}
		s := int(e.rsSlot)
		if s < 0 || s >= n || owner[s] != nil {
			return fmt.Errorf("seq %d holds slot %d: out of range or shared", e.Seq, s)
		}
		owner[s] = e
	}
	if !slices.Equal(c.rsSlots, owner) {
		return fmt.Errorf("slot table disagrees with the entries' slots")
	}
	free := make([]bool, n)
	for _, s := range c.rsFree {
		if s < 0 || int(s) >= n || free[s] || owner[s] != nil {
			return fmt.Errorf("free slot %d is out of range, listed twice or in use", s)
		}
		free[s] = true
	}
	used := 0
	for _, e := range owner {
		if e != nil {
			used++
		}
	}
	if used+len(c.rsFree) != n {
		return fmt.Errorf("%d used + %d free slots != RSSize %d", used, len(c.rsFree), n)
	}
	// The matrix has bit (p, s) set exactly when slot s's entry waits for
	// p, one of its distinct unready sources; rsWait counts them.
	want := make([]uint64, len(c.wakeRows))
	for s, e := range owner {
		if e == nil {
			continue
		}
		waits := int32(0)
		for i, p := range [2]int{e.PhysSrc1, e.PhysSrc2} {
			if p < 0 || c.regs[p].ready || (i == 1 && p == e.PhysSrc1) {
				continue
			}
			want[p*c.rsWords+s/64] |= 1 << (s % 64)
			waits++
		}
		if e.rsWait != waits {
			return fmt.Errorf("seq %d (slot %d) waits on %d registers, rsWait %d", e.Seq, s, waits, e.rsWait)
		}
	}
	for i := range want {
		if c.wakeRows[i] != want[i] {
			return fmt.Errorf("matrix row p%d word %d = %#x, want %#x",
				i/c.rsWords, i%c.rsWords, c.wakeRows[i], want[i])
		}
	}
	return checkLists(c)
}

// checkLists checks the state a squash cuts rather than rebuilds against
// the ROB: the load queue, store queue and evaluated list hold the ROB's
// loads, stores and issued invocations, in order; the speculative map is
// the committed map with the ROB's renames applied in order; and every
// physical register but 0 is exactly one of free, committed or the
// destination of an instruction or invocation in flight.
func checkLists(c *CPU) error {
	var loads, strs, evals []*ROBEntry
	rat := slices.Clone(c.committedRAT)
	held := make([]int, len(c.regs))
	for _, e := range c.rob.live() {
		switch {
		case e.IsTrace():
			if e.Issued {
				evals = append(evals, e)
			}
			for i, p := range e.Trace.liveOutPhys {
				if p >= 0 {
					rat[e.Trace.LiveOuts[i]] = p
					held[p]++
				}
			}
			continue
		case e.Inst.Op.IsLoad():
			loads = append(loads, e)
		case e.Inst.Op.IsStore():
			strs = append(strs, e)
		}
		if e.PhysDest >= 0 {
			rat[e.Inst.Dest] = e.PhysDest
			held[e.PhysDest]++
		}
	}
	for _, l := range []struct {
		name      string
		got, want []*ROBEntry
	}{
		{"load queue", c.loads.live(), loads},
		{"store queue", c.strs.live(), strs},
		{"evaluated list", c.evalTraces.live(), evals},
	} {
		if !slices.Equal(l.got, l.want) {
			return fmt.Errorf("%s %v, ROB holds %v", l.name, seqs(l.got), seqs(l.want))
		}
	}
	if !slices.Equal(c.rat, rat) {
		return fmt.Errorf("speculative map %v, committed map plus the ROB's renames %v", c.rat, rat)
	}
	for _, p := range c.freeList {
		held[p]++
	}
	for _, p := range c.committedRAT {
		held[p]++
	}
	for p := 1; p < len(held); p++ {
		if held[p] != 1 {
			return fmt.Errorf("p%d is free, committed or an in-flight destination %d times, want once", p, held[p])
		}
	}
	return nil
}

// stepChecked runs p to its halt one cycle at a time, checking the
// scheduler with checkRS after every step. It also returns the most slots
// in use at once.
func stepChecked(t *testing.T, cfg Config, p *program.Program, m *mem.Memory, hooks Hooks) (*CPU, int) {
	t.Helper()
	peak := 0
	c := New(cfg, p, m, nil)
	c.SetHooks(hooks)
	for !c.stats.HaltSeen {
		if c.cycle >= 2_000_000 {
			t.Fatalf("%s: no halt after %d cycles: %s", p.Name, c.cycle, c.debugState())
		}
		c.step()
		if err := checkRS(c); err != nil {
			t.Fatalf("%s: cycle %d: %v", p.Name, c.cycle, err)
		}
		peak = max(peak, cfg.RSSize-len(c.rsFree))
	}
	return c, peak
}

// TestSchedulerMatchesScan checks the event-driven issue stage's
// bookkeeping after every simulated cycle against a full scan of the ROB:
// the occupancy counter, the ready and trace lists (contents and sequence
// order), slot ownership and the wakeup matrix; and with them the load and
// store queues, the evaluated list, the speculative map and the ownership
// of every physical register, which a squash cuts or rebuilds from the ROB
// (checkLists). It runs register, memory,
// mispredict, memory-violation and trace-injection programs on the default
// machine (RS 64, one matrix word per register), the starved tiny machine
// (RS 4) and an RS of 100 (two words per register, the last one partial).
func TestSchedulerMatchesScan(t *testing.T) {
	rs100 := DefaultConfig()
	rs100.RSSize = 100
	for _, mc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"tiny", tinyConfig()}, {"rs100", rs100}} {
		t.Run(mc.name, func(t *testing.T) {
			peak := 0
			run := func(p *program.Program, m *mem.Memory, hooks Hooks) *CPU {
				c, used := stepChecked(t, mc.cfg, p, m, hooks)
				peak = max(peak, used)
				return c
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 15; trial++ {
				p := randomProgram(rng, trial)
				seed := rng.Int63()
				init := func() *mem.Memory {
					m, r := mem.New(), rand.New(rand.NewSource(seed))
					for i := 0; i < 128; i++ {
						m.WriteInt(uint64(i*8), int64(r.Intn(100)))
					}
					return m
				}
				gold := init()
				if err := interp.New(gold).Run(p, 50_000_000); err != nil {
					t.Fatal(err)
				}
				m := init()
				run(p, m, Hooks{})
				if eq, diff := gold.Equal(m); !eq {
					t.Fatalf("trial %d: memory mismatch: %s", trial, diff)
				}
			}

			c := run(lcgBranchProgram(), mem.New(), Hooks{})
			if c.Stats().BranchMispredicts == 0 {
				t.Error("branch program never mispredicted")
			}
			run(memViolationProgram(), mem.New(), Hooks{})

			const n = 40
			var log traceLog
			c = run(sumLoop(n), mem.New(), injectOneIter(&log))
			if log.injected == 0 || log.evals == 0 {
				t.Errorf("trace program injected %d, evaluated %d", log.injected, log.evals)
			}
			if got := c.ArchRegInt(isa.R(3)); got != n*(n-1)/2 {
				t.Errorf("trace program: r3 = %d, want %d", got, n*(n-1)/2)
			}
			// Only a full RS exercises every slot and matrix word.
			if peak != mc.cfg.RSSize {
				t.Errorf("at most %d of %d RS slots were in use at once", peak, mc.cfg.RSSize)
			}
		})
	}
}
