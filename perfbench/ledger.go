package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The host-time ledger: a runtime/pprof CPU profile of the traced passes,
// with every sample's self time charged to exactly one layer bucket (the
// package of its leaf frame), so the buckets sum to the profile total by
// construction.

// buckets lists the self-time buckets in report order; each becomes a
// "<bucket>.host_s" per-layer metric.
var buckets = []string{
	"ooo", "core", "mapper", "fabric", "cache", "memdep", "branch", "tcache",
	"cfgcache", "interp", "mem", "program", "workloads", "experiments",
	"runner", "jobs", "telemetry", "net", "syscall", "runtime", "other",
}

// repoBucket maps the repository's packages (dynaspam/internal/<pkg>) to
// their bucket. Packages absent here (area, lint) land in "other".
var repoBucket = map[string]string{
	"ooo": "ooo", "core": "core", "mapper": "mapper", "fabric": "fabric",
	"cache": "cache", "memdep": "memdep", "branch": "branch", "tcache": "tcache",
	"cfgcache": "cfgcache", "interp": "interp", "mem": "mem",
	"program": "program", "isa": "program",
	"workloads":   "workloads",
	"experiments": "experiments", "energy": "experiments", "stats": "experiments",
	"runner": "runner", "jobs": "jobs",
	"telemetry": "telemetry", "spans": "telemetry", "probe": "telemetry", "cpistack": "telemetry",
}

// inclusive maps an inclusive-time metric to the functions whose stack
// presence charges a sample to it (counted once per sample).
var inclusive = map[string][]string{
	"interp.step_s":      {"dynaspam/internal/interp.(*State).Step"},
	"cache.warm_s":       {"dynaspam/internal/cache.(*Hierarchy).WarmData"},
	"fabric.run_s":       {"dynaspam/internal/fabric.(*Fabric).Run", "dynaspam/internal/fabric.(*Fabric).RunBatch"},
	"workloads.inputs_s": {"dynaspam/internal/workloads.(*Workload).NewMemory"},
	"workloads.golden_s": {"dynaspam/internal/workloads.(*Workload).GoldenMemory"},
	"mem.equal_s":        {"dynaspam/internal/mem.(*Memory).Equal"},
}

// packageOf returns the import path of a symbolized Go function name,
// e.g. "dynaspam/internal/ooo" for "dynaspam/internal/ooo.(*CPU).step".
// Generic instantiations are cut at '[' first, since type arguments may
// themselves contain import paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf returns the self-time bucket of a function.
func bucketOf(fn string) string {
	pkg := packageOf(fn)
	if rest, ok := strings.CutPrefix(pkg, "dynaspam/internal/"); ok {
		if b, ok := repoBucket[rest]; ok {
			return b
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "internal/poll", pkg == "internal/runtime/syscall",
		pkg == "runtime/internal/syscall", strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	}
	return "other"
}

// ledger is a CPU profile reduced to per-bucket self time and the
// inclusive times of the functions in inclusive, all in seconds.
type ledger struct {
	TotalS     float64
	SelfS      map[string]float64
	InclusiveS map[string]float64
}

// readLedger decodes a gzip-compressed pprof CPU profile (as written by
// runtime/pprof) and charges its samples.
func readLedger(gz []byte) (ledger, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return ledger{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return ledger{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return ledger{}, fmt.Errorf("profile: %w", err)
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return ledger{}, errors.New("profile: no cpu sample type")
	}
	fnName := func(id uint64) string { return p.str(p.funcs[id]) }
	l := ledger{SelfS: map[string]float64{}, InclusiveS: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		l.TotalS += sec
		leaf := "?"
		if lines := p.locs[s.locs[0]]; len(lines) > 0 {
			leaf = fnName(lines[0]) // the innermost inlined frame
		}
		l.SelfS[bucketOf(leaf)] += sec
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, f := range p.locs[loc] {
				seen[fnName(f)] = true
			}
		}
		for metric, fns := range inclusive {
			for _, fn := range fns {
				if seen[fn] {
					l.InclusiveS[metric] += sec
					break
				}
			}
		}
	}
	return l, nil
}

// profile is the subset of the pprof protobuf message the ledger needs.
type profile struct {
	sampleTypes []int64 // string-table index of each ValueType.type
	samples     []sample
	locs        map[uint64][]uint64 // location id → function ids, innermost first
	funcs       map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the fields of perftools.profiles.Profile used
// above: sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachVarint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: packed
// (data holds the varints) or one value per field occurrence.
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
