// Package mem provides the flat byte-addressable backing store shared by the
// host pipeline, the cache hierarchy, and the spatial fabric's load/store
// units.
//
// All architectural accesses are 8-byte words; addresses are byte addresses
// and need not be aligned (the workloads use 8-byte strides throughout, but
// unaligned access is defined for robustness).
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Memory is a sparse flat memory built from fixed-size pages, so large
// address spaces cost only what the workload touches.
//
// Pages below dirBound live in a directory indexed by page number, so the
// load and store paths find a page with one bounds check and one slice
// index; only pages at or above the bound (hostile or fuzzed addresses: no
// workload comes near it) go through a map. Two rules keep a Memory
// shareable and cheap:
//
//   - Reads never write. A read of an untouched page returns zero without
//     creating the page or growing the directory, so concurrent readers of
//     a memory nobody writes (a golden reference, say) need no locking.
//   - Pages are never freed. A store creates its page (growing the
//     directory geometrically when needed), and the page lives as long as
//     the Memory.
type Memory struct {
	dir   []*page          // pages below dirBound, by page number; nil = untouched
	far   map[uint64]*page // pages at or above dirBound; nil until the first one
	pages int              // pages allocated, in dir and far together
}

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// dirBound is the first address whose page lives in the far map. At
	// 4 GiB the directory never exceeds 64K pointers (512 KiB), and every
	// workload's data, the 1000x inputs included, sits far below it.
	dirBound = 4 << 30
	dirPages = dirBound >> pageShift
)

type page struct {
	data [pageSize]byte
}

// word returns the little-endian word at off of p; a nil page reads as
// zero.
func (p *page) word(off uint64) uint64 {
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p.data[off : off+8])
}

// New returns an empty memory. All bytes read as zero.
func New() *Memory {
	return &Memory{}
}

// lookup returns page idx, or nil if it was never written.
func (m *Memory) lookup(idx uint64) *page {
	if idx < uint64(len(m.dir)) {
		return m.dir[idx]
	}
	if idx < dirPages {
		return nil
	}
	return m.far[idx]
}

// pageFor returns the page holding addr, creating it if needed.
func (m *Memory) pageFor(addr uint64) *page {
	idx := addr >> pageShift
	if p := m.lookup(idx); p != nil {
		return p
	}
	p := &page{}
	m.pages++
	if idx >= dirPages {
		if m.far == nil {
			m.far = make(map[uint64]*page)
		}
		m.far[idx] = p
		return p
	}
	if idx >= uint64(len(m.dir)) {
		dir := make([]*page, min(max(2*uint64(len(m.dir)), idx+1), dirPages))
		copy(dir, m.dir)
		m.dir = dir
	}
	m.dir[idx] = p
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.lookup(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p.data[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.pageFor(addr).data[addr&pageMask] = b
}

// Read64 returns the little-endian 64-bit word at addr.
func (m *Memory) Read64(addr uint64) uint64 {
	// Fast path: within one page.
	off := addr & pageMask
	if off+8 <= pageSize {
		return m.lookup(addr >> pageShift).word(off)
	}
	var buf [8]byte
	for i := range buf {
		buf[i] = m.LoadByte(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write64 stores v as a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, v uint64) {
	off := addr & pageMask
	if off+8 <= pageSize {
		p := m.pageFor(addr)
		binary.LittleEndian.PutUint64(p.data[off:off+8], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for i := range buf {
		m.StoreByte(addr+uint64(i), buf[i])
	}
}

// ReadInt returns the signed 64-bit word at addr.
func (m *Memory) ReadInt(addr uint64) int64 { return int64(m.Read64(addr)) }

// WriteInt stores the signed 64-bit word v at addr.
func (m *Memory) WriteInt(addr uint64, v int64) { m.Write64(addr, uint64(v)) }

// ReadFloat returns the float64 at addr.
func (m *Memory) ReadFloat(addr uint64) float64 { return math.Float64frombits(m.Read64(addr)) }

// WriteFloat stores the float64 v at addr.
func (m *Memory) WriteFloat(addr uint64, v float64) { m.Write64(addr, math.Float64bits(v)) }

// Footprint returns the number of bytes of backing store allocated.
func (m *Memory) Footprint() int { return m.pages * pageSize }

// Clone returns a deep copy of the memory, used by tests to compare
// simulator output against golden execution.
func (m *Memory) Clone() *Memory {
	c := &Memory{dir: make([]*page, len(m.dir)), pages: m.pages}
	for idx, p := range m.dir {
		if p != nil {
			c.dir[idx] = &page{data: p.data}
		}
	}
	if m.far != nil {
		c.far = make(map[uint64]*page, len(m.far))
		for idx, p := range m.far {
			c.far[idx] = &page{data: p.data}
		}
	}
	return c
}

// Equal reports whether two memories hold identical contents, and if not,
// describes the first differing 8-byte word found.
//
// Pages are visited in address order (directory, then the far pages
// sorted), so the reported first difference is deterministic. Each pair
// of pages is compared as a whole; words are scanned only inside the first
// pair that differs. An absent page compares as zeros.
func (m *Memory) Equal(o *Memory) (bool, string) {
	for idx := range max(len(m.dir), len(o.dir)) {
		if diff := diffPage(uint64(idx), m.lookup(uint64(idx)), o.lookup(uint64(idx))); diff != "" {
			return false, diff
		}
	}
	far := make([]uint64, 0, len(m.far)+len(o.far))
	for idx := range m.far {
		far = append(far, idx)
	}
	for idx := range o.far {
		far = append(far, idx)
	}
	slices.Sort(far)
	for _, idx := range slices.Compact(far) {
		if diff := diffPage(idx, m.far[idx], o.far[idx]); diff != "" {
			return false, diff
		}
	}
	return true, ""
}

// diffPage describes the first differing word of page idx between p and q
// (nil reads as zero), or returns "" if the two hold the same bytes.
func diffPage(idx uint64, p, q *page) string {
	if p == q || p != nil && q != nil && p.data == q.data {
		return ""
	}
	base := idx << pageShift
	for off := uint64(0); off < pageSize; off += 8 {
		if a, b := p.word(off), q.word(off); a != b {
			return fmt.Sprintf("mem[%#x]: %#x != %#x", base+off, a, b)
		}
	}
	return ""
}
