package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// pattern generates and checks seeded file content. Block b of file id
// holds one of patBlocks random 4 KB blocks, stamped with a 16-byte
// header naming (id, b, seed) — so a block read back from the wrong
// file, the wrong offset, a stale segment or a zeroed hole fails the
// check, and checking costs one memcmp per block.
type pattern struct {
	tag    uint64
	blocks [patBlocks][]byte
}

const patBlocks = 64

func newPattern(seed uint64) *pattern {
	rng := sim.NewRNG(seed ^ 0x5eed_c0de_0b10_c4a7)
	pt := &pattern{tag: rng.Uint64()}
	for i := range pt.blocks {
		b := make([]byte, lfs.BlockSize)
		for j := 0; j < len(b); j += 8 {
			binary.LittleEndian.PutUint64(b[j:], rng.Uint64())
		}
		pt.blocks[i] = b
	}
	return pt
}

func (pt *pattern) block(id uint32, blk int64) []byte {
	return pt.blocks[(uint64(id)*131+uint64(blk))%patBlocks]
}

// fill writes the content of file id at byte offset off (block aligned)
// into buf (a whole number of blocks).
func (pt *pattern) fill(buf []byte, id uint32, off int64) {
	for o := 0; o < len(buf); o += lfs.BlockSize {
		blk := (off + int64(o)) / lfs.BlockSize
		b := buf[o : o+lfs.BlockSize]
		copy(b, pt.block(id, blk))
		binary.LittleEndian.PutUint64(b[0:], uint64(id)<<32|uint64(blk))
		binary.LittleEndian.PutUint64(b[8:], pt.tag)
	}
}

// check reports whether buf holds file id's content at offset off.
func (pt *pattern) check(buf []byte, id uint32, off int64) bool {
	for o := 0; o < len(buf); o += lfs.BlockSize {
		blk := (off + int64(o)) / lfs.BlockSize
		b := buf[o : o+lfs.BlockSize]
		if binary.LittleEndian.Uint64(b[0:]) != uint64(id)<<32|uint64(blk) ||
			binary.LittleEndian.Uint64(b[8:]) != pt.tag ||
			!bytes.Equal(b[16:], pt.block(id, blk)[16:]) {
			return false
		}
	}
	return true
}

// quantile is the exact nearest-rank order statistic: the smallest sample
// with at least q of the samples at or below it. sorted must be ascending.
func quantile(sorted []sim.Time, q float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail summarizes a latency sample: exact p50 and p99, the sample count,
// how many samples lie strictly beyond p99, and a digest of every sample
// in arrival order (so two runs compare exactly, not just at two ranks).
type tail struct {
	N         int
	P50, P99  sim.Time
	BeyondP99 int
	UnderOneS int // samples of at most one second
	Digest    uint64
}

func summarize(samples []sim.Time) tail {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	sorted := append([]sim.Time(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t := tail{N: len(sorted), P50: quantile(sorted, 0.50), P99: quantile(sorted, 0.99), Digest: h.Sum64()}
	t.BeyondP99 = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > t.P99 })
	t.UnderOneS = sort.Search(len(sorted), func(i int) bool { return sorted[i] > sim.Time(1e9) })
	return t
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(t sim.Time) float64 { return float64(t) / 1e6 }

func mb(n int64) float64 { return float64(n) / (1 << 20) }
