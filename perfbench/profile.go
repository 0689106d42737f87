package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host attribution by layer. A wall-clock span around a sim call cannot
// say where host time went: while the caller is suspended the kernel runs
// every other proc. Instead the traced run takes the Go runtime's CPU and
// allocation profiles and charges each sample to the innermost frame of a
// repro/internal/<layer> package, so runtime.memmove, memclr and mallocgc
// are charged to the layer that called them. Samples whose stack holds no
// repository frame (GC workers, the scheduler) are charged to "gc", and
// the benchmark's own frames (package main: clients, content checks) to
// "bench". The profiles are decoded here from their protobuf encoding,
// which keeps the benchmark free of dependencies.

// layerOf names the layer a fully qualified function belongs to, or ""
// for a function outside the repository.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attribute decodes a gzipped pprof profile and sums the sample values
// of sample type valueType per layer.
func attribute(gz []byte, valueType string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range prof.sampleTypes {
		if prof.str(st) == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile: no %q sample type", valueType)
	}
	// Each location's layer: its innermost (first) line's repository
	// frame; inlined callers follow in order.
	locLayer := make(map[uint64]string, len(prof.locations))
	for id, fns := range prof.locations {
		for _, f := range fns {
			if l := layerOf(prof.str(prof.functions[f])); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	out := make(map[string]int64)
	for _, s := range prof.samples {
		if vi >= len(s.values) {
			continue
		}
		layer := "gc"
		for _, loc := range s.locs {
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.values[vi]
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// pbuf walks one protobuf message.
type pbuf struct {
	b   []byte
	err error
}

func (m *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(m.b) == 0 {
			m.err = errProto
			return 0
		}
		c := m.b[0]
		m.b = m.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	m.err = errProto
	return 0
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2). Fixed-width fields are skipped.
func (m *pbuf) next() (field int, wire int, v uint64, payload []byte) {
	key := m.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = m.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(m.b) < n {
			m.err = errProto
			return
		}
		m.b = m.b[n:]
	case 2:
		n := m.varint()
		if uint64(len(m.b)) < n {
			m.err = errProto
			return
		}
		payload, m.b = m.b[:n], m.b[n:]
	default:
		m.err = errProto
	}
	return
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pm := pbuf{b: payload}
	for len(pm.b) > 0 && pm.err == nil {
		dst = append(dst, pm.varint())
	}
	return dst, pm.err
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	m := pbuf{b: raw}
	for len(m.b) > 0 && m.err == nil {
		field, wire, _, payload := m.next()
		if m.err != nil || wire != 2 {
			continue
		}
		sub := pbuf{b: payload}
		var err error
		switch field {
		case 1: // sample_type
			for len(sub.b) > 0 && sub.err == nil {
				if f, _, v, _ := sub.next(); f == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
			}
		case 2: // sample
			var s sample
			var vals []uint64
			for len(sub.b) > 0 && sub.err == nil && err == nil {
				f, w, v, pl := sub.next()
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					vals, err = uints(vals, w, v, pl)
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for len(sub.b) > 0 && sub.err == nil {
				f, _, v, pl := sub.next()
				switch f {
				case 1:
					id = v
				case 4: // line
					lm := pbuf{b: pl}
					for len(lm.b) > 0 && lm.err == nil {
						if lf, _, lv, _ := lm.next(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					err = lm.err
				}
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			for len(sub.b) > 0 && sub.err == nil {
				f, _, v, _ := sub.next()
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		if err == nil {
			err = sub.err
		}
		if err != nil {
			return nil, err
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return p, nil
}
