package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// fuzzBases are the address clusters FuzzMemory draws from: low memory,
// the directory bound (a word at dirBound-4 straddles it), far pages, and
// the top of the address space, where a straddling word wraps to 0.
var fuzzBases = [...]uint64{0, dirBound - 1<<15, 1 << 40, ^uint64(1<<15 - 1)}

// fuzzOpLen is the encoded size of one FuzzMemory operation: op, cluster,
// 16-bit offset, 64-bit value.
const fuzzOpLen = 12

// FuzzMemory runs a random stream of Read64/Write64/LoadByte/StoreByte
// against a byte-map reference model, then checks Footprint, Clone and
// Equal (including its first-difference message) against the same model.
func FuzzMemory(f *testing.F) {
	op := func(code, cluster byte, off uint16, v uint64) []byte {
		b := []byte{code, cluster, 0, 0}
		b = binary.LittleEndian.AppendUint16(b[:2], off)
		return binary.LittleEndian.AppendUint64(b, v)
	}
	f.Add(slices.Concat(op(0, 0, 8, 0x1122334455667788), op(1, 0, 8, 0)))
	f.Add(slices.Concat(op(0, 1, 1<<15-4, ^uint64(0)), op(1, 1, 1<<15-4, 0), op(2, 1, 1<<15+3, 0)))
	f.Add(slices.Concat(op(0, 3, 1<<15-4, 0x0102030405060708), op(1, 0, 0, 0), op(3, 2, 9, 0xff)))
	f.Add(slices.Concat(op(3, 2, 0, 0), op(0, 0, 1<<15, 5), op(3, 1, 1<<15, 1)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New()
		ref := map[uint64]byte{} // every byte ever stored, zeros included
		refWord := func(a uint64) uint64 {
			var v uint64
			for i := range 8 {
				v |= uint64(ref[a+uint64(i)]) << (8 * i)
			}
			return v
		}
		for ; len(ops) >= fuzzOpLen; ops = ops[fuzzOpLen:] {
			a := fuzzBases[int(ops[1])%len(fuzzBases)] + uint64(binary.LittleEndian.Uint16(ops[2:4]))
			v := binary.LittleEndian.Uint64(ops[4:12])
			switch ops[0] % 4 {
			case 0:
				m.Write64(a, v)
				for i := range 8 {
					ref[a+uint64(i)] = byte(v >> (8 * i))
				}
			case 1:
				if got, want := m.Read64(a), refWord(a); got != want {
					t.Fatalf("Read64(%#x) = %#x, want %#x", a, got, want)
				}
			case 2:
				if got, want := m.LoadByte(a), ref[a]; got != want {
					t.Fatalf("LoadByte(%#x) = %#x, want %#x", a, got, want)
				}
			case 3:
				m.StoreByte(a, byte(v))
				ref[a] = byte(v)
			}
		}

		// The reference's pages, and its first nonzero word in address
		// order (what Equal against an empty memory must report).
		addrs := make([]uint64, 0, len(ref))
		for a := range ref {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		var pages []uint64
		wantDiff := ""
		for _, a := range addrs {
			if len(pages) == 0 || pages[len(pages)-1] != a>>pageShift {
				pages = append(pages, a>>pageShift)
			}
			if w := a &^ 7; wantDiff == "" && ref[a] != 0 {
				wantDiff = fmt.Sprintf("mem[%#x]: %#x != 0x0", w, refWord(w))
			}
		}
		if got := m.Footprint(); got != len(pages)*pageSize {
			t.Fatalf("Footprint = %d, want %d (%d pages)", got, len(pages)*pageSize, len(pages))
		}
		if eq, diff := m.Equal(New()); eq != (wantDiff == "") || diff != wantDiff {
			t.Fatalf("Equal(empty) = %v, %q; want %q", eq, diff, wantDiff)
		}

		c := m.Clone()
		if c.Footprint() != m.Footprint() {
			t.Fatalf("Clone Footprint = %d, want %d", c.Footprint(), m.Footprint())
		}
		if eq, diff := c.Equal(m); !eq {
			t.Fatalf("Clone differs from its source: %s", diff)
		}
		for _, a := range addrs {
			if got := c.LoadByte(a); got != ref[a] {
				t.Fatalf("Clone LoadByte(%#x) = %#x, want %#x", a, got, ref[a])
			}
		}
		if len(addrs) > 0 {
			a := addrs[len(addrs)/2]
			c.StoreByte(a, ^ref[a])
			if m.LoadByte(a) != ref[a] {
				t.Fatalf("store to the clone at %#x reached the source", a)
			}
			w := a &^ 7
			want := fmt.Sprintf("mem[%#x]: %#x != %#x", w, m.Read64(w), c.Read64(w))
			if eq, diff := m.Equal(c); eq || diff != want {
				t.Fatalf("Equal(clone with %#x flipped) = %v, %q; want %q", a, eq, diff, want)
			}
		}
	})
}
