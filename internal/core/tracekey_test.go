package core

import (
	"encoding/binary"
	"testing"

	"dynaspam/internal/branch"
	"dynaspam/internal/fabric"
	"dynaspam/internal/isa"
	"dynaspam/internal/mem"
	"dynaspam/internal/program"
	"dynaspam/internal/tcache"
	"dynaspam/internal/workloads"
)

// checkTraceKey fails t unless traceKey returns walkTrace's key and ok at
// every branch of sys's program and leaves the branch history as it found
// it. It returns how many branches formed a trace and which of the eight
// direction patterns their keys used.
func checkTraceKey(t *testing.T, sys *System) (formed int, dirs uint8) {
	t.Helper()
	bp := sys.CPU().Branch()
	hist := bp.History()
	for pc := 0; pc < sys.prog.Len(); pc++ {
		if !sys.prog.At(pc).Op.IsBranch() {
			continue
		}
		_, want, _, wantOK := sys.walkTrace(pc)
		key, ok := sys.traceKey(pc)
		if key != want || ok != wantOK {
			t.Fatalf("%s, TraceLen %d, history %#x: traceKey(%d) = %v, %v; walkTrace forms %v, %v\n%s",
				sys.prog.Name, sys.params.TraceLen, hist, pc, key, ok, want, wantOK, sys.prog.Disassemble())
		}
		if h := bp.History(); h != hist {
			t.Fatalf("traceKey(%d) left the history at %#x, want %#x", pc, h, hist)
		}
		if ok {
			formed++
			dirs |= 1 << key.Dirs
		}
	}
	return formed, dirs
}

// lcg is a small deterministic generator for predictor training.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

// scramble trains bp so its predictions mix directions: every gshare
// counter is set by pseudo-random outcomes (bp must have few history bits
// for that), and about half of prog's conditional branches teach the
// loop-exit predictor an exit at a random run of taken outcomes.
func scramble(bp *branch.Predictor, historyBits int, prog *program.Program, r *lcg) {
	for i := range uint64(1) << historyBits {
		for range 3 {
			bp.Update(i, 0, r.next()&1 == 1)
		}
	}
	for pc, in := range prog.Insts {
		if !in.Op.IsCondBranch() || r.next()&1 == 0 {
			continue
		}
		ones := uint64(1)<<(r.next()%8) - 1
		for range 3 {
			bp.Update(uint64(pc), ones, false)
		}
	}
}

// TestTraceKeyMatchesWalk holds traceKey to walkTrace, the reference walk,
// at every branch of every kernel (the Rodinia set plus the extras and
// scaled variants), for trace lengths from the minimum to beyond the
// default and for several predictor states and histories: untrained,
// trained taken, and a small-history predictor trained at random, so
// predictions mix directions and the loop-exit rule fires.
func TestTraceKeyMatchesWalk(t *testing.T) {
	histories := []uint64{0, ^uint64(0), 0x5555555555555555, 0x3333333333333333, 0x0123456789abcdef}
	formed := 0
	var dirs uint8
	for _, w := range workloads.Extended() {
		for _, traceLen := range []int{2, 8, 16, 32, 40} {
			for state := range 3 {
				params := DefaultParams()
				params.TraceLen = traceLen
				if state == 2 {
					params.OOO.Branch.HistoryBits = 6
				}
				sys := New(params, w.Prog, mem.New())
				bp := sys.CPU().Branch()
				switch state {
				case 1:
					trainTaken(sys, w.Prog)
				case 2:
					r := lcg(traceLen)
					scramble(bp, params.OOO.Branch.HistoryBits, w.Prog, &r)
				}
				for _, h := range histories {
					bp.Restore(h)
					n, d := checkTraceKey(t, sys)
					formed += n
					dirs |= d
				}
			}
		}
	}
	if formed == 0 || dirs != 0xff {
		t.Fatalf("%d keys formed with direction patterns %08b; the check must see traces with all eight patterns", formed, dirs)
	}
}

// FuzzTraceKey holds traceKey to walkTrace on generated programs. The first
// byte picks TraceLen in [2, 48] and the next eight the branch history; the
// rest decode two bytes per instruction, at most 48: the low three bits of
// the first byte pick an ALU op, a conditional branch, a jmp or a halt,
// and the second byte a target in the program. The predictor has four
// history bits, so every counter gets trained: each conditional branch
// trains the counter its second byte indexes, toward its first byte's top
// bit, once or twice (bit 5), which also teaches a loop exit when the
// outcome is not taken.
func FuzzTraceKey(f *testing.F) {
	hist := []byte{0xff, 0, 0, 0, 0, 0, 0, 0}
	seed := func(traceLen byte, code ...byte) []byte {
		return append(append([]byte{traceLen}, hist...), code...)
	}
	// A loop with a forward branch inside it and a halt after it.
	f.Add(seed(30, 0, 0, 3, 4, 0, 0, 0, 0, 0xb3, 0, 7, 0))
	// Back-to-back jmps and a branch to the end of the program.
	f.Add(seed(0, 6, 1, 6, 2, 0x84, 5, 0, 0, 6, 0, 0xac, 3))
	// Jumps whose third branch falls on step 8, just past the shortest
	// trace's step cap (TraceLen 2), and on step 7 within it.
	f.Add(seed(0, 6, 1, 0, 0, 0, 0, 0, 0, 6, 5, 0, 0, 0, 0, 0, 0, 6, 0))
	f.Add(seed(0, 6, 1, 0, 0, 0, 0, 6, 4, 0, 0, 0, 0, 0, 0, 6, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		code := data[9:min(len(data), 9+2*48)]
		n := len(code) / 2
		prog := &program.Program{Name: "fuzz", Insts: make([]isa.Inst, n)}
		conds := [4]isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}
		for pc := range n {
			a, b := code[2*pc], code[2*pc+1]
			in := isa.Inst{Op: isa.OpAddi, Dest: isa.R(1), Src1: isa.R(1), Src2: isa.RegInvalid, Imm: 1}
			switch a & 7 {
			case 3, 4, 5:
				in = isa.Inst{Op: conds[a>>3&3], Dest: isa.RegInvalid, Src1: isa.R(1), Src2: isa.R(2), Target: int(b) % n}
			case 6:
				in = isa.Inst{Op: isa.OpJmp, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid, Target: int(b) % n}
			case 7:
				in = isa.Inst{Op: isa.OpHalt, Dest: isa.RegInvalid, Src1: isa.RegInvalid, Src2: isa.RegInvalid}
			}
			prog.Insts[pc] = in
		}
		params := DefaultParams()
		params.TraceLen = 2 + int(data[0])%47
		params.OOO.Branch.HistoryBits = 4
		sys := New(params, prog, mem.New())
		bp := sys.CPU().Branch()
		for pc, in := range prog.Insts {
			if !in.Op.IsCondBranch() {
				continue
			}
			a, b := code[2*pc], code[2*pc+1]
			for range 1 + int(a>>5&1) {
				bp.Update(uint64(pc), uint64(b), a&0x80 != 0)
			}
		}
		bp.Restore(binary.LittleEndian.Uint64(data[1:9]))
		checkTraceKey(t, sys)
	})
}

// TestChronicExitRule states noteExit's chronic-exit filter: once at least
// 8 invocations of a trace have been evaluated (commits plus branch exits),
// an exit that brings the exits to a quarter or more of them disables the
// trace, clears its hot flag and drops its configuration. 2 exits among 8
// evaluated invocations do; 1 among 8 does not, nor do 2 among 7.
func TestChronicExitRule(t *testing.T) {
	for _, tc := range []struct {
		name           string
		commits, exits int
		disabled       bool
	}{
		{"2 exits of 8", 6, 2, true},
		{"1 exit of 8", 7, 1, false},
		{"2 exits of 7", 5, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := New(DefaultParams(), hotLoop(100), mem.New())
			key := tcache.TraceKey{AnchorPC: 11, Dirs: 0b011}
			for range sys.params.TCache.HotThreshold {
				sys.tc.ResetWindow()
				for d := range tcache.HistoryLen {
					sys.tc.OnBranchCommit(key.AnchorPC+100*d, key.Dir(d))
				}
			}
			sys.cc.Store(key, &fabric.Config{})
			if !sys.tc.IsHot(key) || sys.cc.Lookup(key) == nil {
				t.Fatal("setup: the key is not hot and mapped")
			}
			sys.health[key] = keyHealth{commits: uint64(tc.commits)}
			for range tc.exits {
				sys.noteExit(key)
			}
			if got := sys.disabled[key]; got != tc.disabled {
				t.Fatalf("%d commits then %d exits: disabled = %v, want %v", tc.commits, tc.exits, got, tc.disabled)
			}
			hot, mapped := sys.tc.IsHot(key), sys.cc.Lookup(key) != nil
			_, tracked := sys.health[key]
			if hot == tc.disabled || mapped == tc.disabled || tracked == tc.disabled {
				t.Errorf("hot %v, configuration kept %v, health kept %v; want all %v", hot, mapped, tracked, !tc.disabled)
			}
			wantDisabled := uint64(0)
			if tc.disabled {
				wantDisabled = 1
			}
			if sys.stats.TracesDisabled != wantDisabled {
				t.Errorf("TracesDisabled = %d, want %d", sys.stats.TracesDisabled, wantDisabled)
			}
		})
	}
}
