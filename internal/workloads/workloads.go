// Package workloads re-implements the inner loops of the eleven Rodinia
// benchmarks the paper evaluates (Table 3) in the dynaspam ISA, each paired
// with a native Go golden reference.
//
// The originals are OpenMP C programs run sequentially at -O3; what matters
// for DynaSpAM is the dynamic shape of each kernel's inner loops — branch
// structure (biased loop backedges vs. unbiased data-dependent branches),
// memory streams and aliasing, and the integer/floating-point mix — so each
// kernel here preserves that shape at a laptop-simulation scale. Golden
// references execute the same arithmetic in the same order natively, so a
// workload's final memory must match the simulator's bit for bit.
package workloads

import (
	"fmt"
	"sync"

	"dynaspam/internal/mem"
	"dynaspam/internal/program"
)

// Workload is one benchmark instance.
type Workload struct {
	// Name is the Rodinia benchmark name; Abbrev the paper's short code.
	Name   string
	Abbrev string
	Domain string
	// Prog is the kernel in the dynaspam ISA.
	Prog *program.Program
	// Init seeds a fresh memory with the kernel's inputs.
	Init func(m *mem.Memory)
	// Golden runs the reference implementation against an initialized
	// memory, producing the expected final state.
	Golden func(m *mem.Memory)
	// MaxInsts bounds the dynamic instruction count (deadlock guard).
	MaxInsts uint64
}

// NewMemory returns a memory initialized with the workload's inputs.
func (w *Workload) NewMemory() *mem.Memory {
	m := mem.New()
	if w.Init != nil {
		w.Init(m)
	}
	return m
}

// GoldenMemory returns the expected final memory.
func (w *Workload) GoldenMemory() *mem.Memory {
	m := w.NewMemory()
	w.Golden(m)
	return m
}

// All returns the eleven workloads in the paper's Table 3 order.
func All() []*Workload { return build(paperWorkloads) }

// Extended returns every workload the simulator knows: the paper's eleven
// (exactly All(), in the same order), the two extra kernels, and the scaled
// variants. All() stays the sweep default so figure sweeps keep matching the
// paper; scaled variants are opt-in by abbreviation.
func Extended() []*Workload { return build(len(extended)) }

// extended holds the constructors of Extended(), in its order. It is the
// only list of workloads: All() builds its first paperWorkloads entries,
// and ByAbbrev indexes it by the abbreviation each entry builds.
var extended = []func() *Workload{
	// The paper's Table 3.
	BackProp,
	BFS,
	BTree,
	Hotspot,
	Kmeans,
	LUD,
	KNN,
	NW,
	PathFinder,
	ParticleFilter,
	SRAD,
	// Two extra kernels, then the scaled variants (scaled.go).
	SPMV,
	SC,
	func() *Workload { return BFSScaled(100) },
	func() *Workload { return BFSScaled(1000) },
	func() *Workload { return SPMVScaled(100) },
	func() *Workload { return SCScaled(100) },
}

// paperWorkloads is the number of extended's entries that build the
// paper's Table 3 workloads.
const paperWorkloads = 11

// build calls extended's first n constructors, in order.
func build(n int) []*Workload {
	ws := make([]*Workload, n)
	for i := range ws {
		ws[i] = extended[i]()
	}
	return ws
}

// abbrevIndex maps each short code of Extended() to its constructor's
// position in extended. It builds every workload once, the first time a
// process resolves one, so that each later lookup builds only the workload
// it names.
var abbrevIndex = sync.OnceValue(func() map[string]int {
	idx := make(map[string]int, len(extended))
	for i, w := range Extended() {
		idx[w.Abbrev] = i
	}
	return idx
})

// ByAbbrev returns a freshly built workload with the given short code, or
// an error. It searches the extended set, so scaled variants (e.g.
// "BFSX100") resolve too.
func ByAbbrev(abbrev string) (*Workload, error) {
	if i, ok := abbrevIndex()[abbrev]; ok {
		return extended[i](), nil
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", abbrev)
}

// lcg is the shared deterministic pseudo-random generator used by input
// initializers (identical in golden and ISA versions where the kernel
// itself needs randomness).
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed} }

func (l *lcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state
}

// intn returns a value in [0, n).
func (l *lcg) intn(n int64) int64 {
	return int64(l.next()>>33) % n
}

// float01 returns a value in [0, 1).
func (l *lcg) float01() float64 {
	return float64(l.next()>>11) / float64(1<<53)
}
