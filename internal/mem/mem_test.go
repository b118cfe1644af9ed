package mem

import (
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.Read64(0x1234); got != 0 {
		t.Errorf("Read64 untouched = %#x, want 0", got)
	}
	if got := m.ReadFloat(0x8000); got != 0 {
		t.Errorf("ReadFloat untouched = %v, want 0", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write64(64, 0xdeadbeefcafe)
	if got := m.Read64(64); got != 0xdeadbeefcafe {
		t.Errorf("Read64 = %#x", got)
	}
	m.WriteInt(128, -42)
	if got := m.ReadInt(128); got != -42 {
		t.Errorf("ReadInt = %d", got)
	}
	m.WriteFloat(256, 3.14159)
	if got := m.ReadFloat(256); got != 3.14159 {
		t.Errorf("ReadFloat = %v", got)
	}
}

func TestPageBoundaryStraddle(t *testing.T) {
	m := New()
	addr := uint64(pageSize - 3) // straddles first/second page
	m.Write64(addr, 0x0102030405060708)
	if got := m.Read64(addr); got != 0x0102030405060708 {
		t.Errorf("straddling Read64 = %#x", got)
	}
	// Bytes land on both pages.
	if m.LoadByte(pageSize-3) != 0x08 {
		t.Error("low byte wrong")
	}
	if m.LoadByte(pageSize+4) != 0x01 {
		t.Error("high byte wrong")
	}
}

func TestOverlappingWrites(t *testing.T) {
	m := New()
	m.Write64(0, ^uint64(0))
	m.Write64(4, 0)
	if got := m.Read64(0); got != 0x00000000ffffffff {
		t.Errorf("Read64(0) = %#x", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Write64(8, 7)
	c := m.clone()
	c.Write64(8, 9)
	if m.Read64(8) != 7 {
		t.Error("Clone aliases original")
	}
	if c.Read64(8) != 9 {
		t.Error("Clone lost write")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(), New()
	a.Write64(16, 5)
	if eq, _ := a.Equal(b); eq {
		t.Error("Equal = true for differing memories")
	}
	b.Write64(16, 5)
	if eq, diff := a.Equal(b); !eq {
		t.Errorf("Equal = false: %s", diff)
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.footprint() != 0 {
		t.Errorf("empty Footprint = %d", m.footprint())
	}
	m.StoreByte(0, 1)
	m.StoreByte(10*pageSize, 1)
	if got := m.footprint(); got != 2*pageSize {
		t.Errorf("Footprint = %d, want %d", got, 2*pageSize)
	}
}

// Property: last write wins at any address for 64-bit round trips.
func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr uint64, v1, v2 uint64) bool {
		addr &= 0xffffff // bound the space
		m.Write64(addr, v1)
		m.Write64(addr, v2)
		return m.Read64(addr) == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: writes to disjoint words do not interfere.
func TestDisjointWritesProperty(t *testing.T) {
	f := func(i, j uint16, v1, v2 uint64) bool {
		if i == j {
			return true
		}
		m := New()
		a1, a2 := uint64(i)*8, uint64(j)*8
		m.Write64(a1, v1)
		m.Write64(a2, v2)
		return m.Read64(a1) == v1 && m.Read64(a2) == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFloatNegativeZeroAndInf(t *testing.T) {
	m := New()
	vals := []float64{0, -1.5, 1e300, -1e-300}
	for i, v := range vals {
		m.WriteFloat(uint64(i*8), v)
	}
	for i, v := range vals {
		if got := m.ReadFloat(uint64(i * 8)); got != v {
			t.Errorf("ReadFloat[%d] = %v, want %v", i, got, v)
		}
	}
}

// TestEqualReportsFirstDifference pins Equal's message: the first
// differing word in address order, even when earlier pages are equal, and
// an absent page reading as zeros against a page present on one side.
func TestEqualReportsFirstDifference(t *testing.T) {
	cases := []struct {
		name string
		a, b func(m *Memory)
		want string
	}{
		{
			name: "later page",
			a: func(m *Memory) {
				m.Write64(8, 1)
				m.Write64(3*pageSize+16, 0xab)
				m.Write64(5*pageSize, 7)
			},
			b: func(m *Memory) {
				m.Write64(8, 1)
				m.Write64(3*pageSize+16, 0xcd)
				m.Write64(5*pageSize, 8)
			},
			want: "mem[0x30010]: 0xab != 0xcd",
		},
		{
			name: "page on one side only",
			a:    func(m *Memory) { m.Write64(8, 1) },
			b: func(m *Memory) {
				m.Write64(8, 1)
				m.Write64(2*pageSize, 0) // present, but zero: equal
				m.Write64(4*pageSize+24, 9)
			},
			want: "mem[0x40018]: 0x0 != 0x9",
		},
		{
			name: "far page on one side only",
			a:    func(m *Memory) { m.Write64(dirBound+pageSize+40, 3) },
			b:    func(m *Memory) {},
			want: "mem[0x100010028]: 0x3 != 0x0",
		},
		{
			name: "directory before far pages",
			a: func(m *Memory) {
				m.Write64(dirBound+8, 1)
				m.Write64(dirBound-8, 2)
			},
			b:    func(m *Memory) {},
			want: "mem[0xfffffff8]: 0x2 != 0x0",
		},
	}
	for _, c := range cases {
		a, b := New(), New()
		c.a(a)
		c.b(b)
		if eq, diff := a.Equal(b); eq || diff != c.want {
			t.Errorf("%s: Equal = %v, %q; want false, %q", c.name, eq, diff, c.want)
		}
	}
	a, b := New(), New()
	b.Write64(2*pageSize, 0)
	b.Write64(dirBound, 0)
	if eq, diff := a.Equal(b); !eq {
		t.Errorf("zero pages present on one side: Equal = false, %q", diff)
	}
}

// TestReadUntouchedAllocsZero pins "reads never write": loads from pages
// nobody stored to, below and above the directory bound and straddling a
// page boundary, allocate nothing and create no page.
func TestReadUntouchedAllocsZero(t *testing.T) {
	m := New()
	m.Write64(8, 1)
	addrs := []uint64{0x100, 7 * pageSize, pageSize - 4, dirBound - 4, dirBound + 64, 1 << 50, ^uint64(0) - 3}
	avg := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			if m.Read64(a) != 0 || m.LoadByte(a) != 0 {
				t.Fatalf("untouched address %#x reads nonzero", a)
			}
		}
	})
	if avg != 0 {
		t.Errorf("reads of untouched pages allocate %.1f times per run, want 0", avg)
	}
	if got := m.footprint(); got != pageSize {
		t.Errorf("Footprint after reads = %d, want %d", got, pageSize)
	}
}

// footprint returns the number of bytes of backing store allocated.
func (m *Memory) footprint() int {
	n := len(m.far)
	for _, p := range m.dir {
		if p != nil {
			n++
		}
	}
	return n * pageSize
}

// clone returns a deep copy of the memory.
func (m *Memory) clone() *Memory {
	c := &Memory{dir: make([]*page, len(m.dir))}
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
