package dev

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
)

// pattern returns n blocks whose every byte identifies its block number
// and a generation, so a misplaced or stale block shows up in a compare.
func pattern(firstBlk int64, n int, gen byte) []byte {
	b := make([]byte, n*BlockSize)
	for i := 0; i < n; i++ {
		blk := firstBlk + int64(i)
		for j := 0; j < BlockSize; j++ {
			b[i*BlockSize+j] = byte(blk) ^ byte(j>>4) ^ gen
		}
	}
	return b
}

// writeRead writes buf at blk on d and reads it back.
func writeRead(t *testing.T, d *Disk, p *sim.Proc, blk int64, buf []byte) {
	t.Helper()
	if err := d.WriteBlocks(p, blk, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(buf))
	if err := d.ReadBlocks(p, blk, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatalf("blocks [%d,%d) read back differ", blk, blk+int64(len(buf)/BlockSize))
	}
}

// TestTransfersStraddleExtents writes and reads runs that cross extent
// boundaries, including a multi-chunk transfer starting mid-extent, and
// checks the untouched neighbours still read as zeroes.
func TestTransfersStraddleExtents(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 8*extentBlocks, nil)
	k.RunProc(func(p *sim.Proc) {
		writeRead(t, d, p, extentBlocks-3, pattern(extentBlocks-3, 6, 1))
		// 40 blocks from block 37: three MaxTransfer chunks over four
		// extents, none of them aligned.
		writeRead(t, d, p, 2*extentBlocks+5, pattern(2*extentBlocks+5, 40, 2))
		whole := make([]byte, 8*extentBlocks*BlockSize)
		if err := d.ReadBlocks(p, 0, whole); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(whole))
		copy(want[(extentBlocks-3)*BlockSize:], pattern(extentBlocks-3, 6, 1))
		copy(want[(2*extentBlocks+5)*BlockSize:], pattern(2*extentBlocks+5, 40, 2))
		if !bytes.Equal(whole, want) {
			t.Fatal("whole-disk read differs from the two writes over zeroes")
		}
	})
	if got, want := len(d.SnapshotStore()), 46; got != want {
		t.Fatalf("snapshot holds %d blocks, want %d", got, want)
	}
}

// TestDiskSizeNotExtentMultiple exercises the partial last extent of a
// disk whose size is not a multiple of the extent size.
func TestDiskSizeNotExtentMultiple(t *testing.T) {
	const n = 2*extentBlocks + 5
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, n, nil)
	k.RunProc(func(p *sim.Proc) {
		writeRead(t, d, p, n-7, pattern(n-7, 7, 3))
		if err := d.WriteBlocks(p, n-1, make([]byte, 2*BlockSize)); err == nil {
			t.Fatal("write past the last block accepted")
		}
		if err := d.ReadBlocks(p, n, make([]byte, BlockSize)); err == nil {
			t.Fatal("read past the last block accepted")
		}
	})
	var img bytes.Buffer
	if err := d.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	d2 := NewDisk(sim.NewKernel(), RZ57, n, nil)
	if err := d2.LoadStore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	snap := d2.SnapshotStore()
	if len(snap) != 7 || !bytes.Equal(snap[n-1], pattern(n-1, 1, 3)) {
		t.Fatalf("loaded image holds %d blocks or lost the last block", len(snap))
	}
}

// TestUnwrittenBlockInAllocatedExtentReadsZero: writing one block
// allocates its whole extent, but the extent's other blocks still read
// as zeroes and stay out of the durable image.
func TestUnwrittenBlockInAllocatedExtentReadsZero(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 4*extentBlocks, nil)
	k.RunProc(func(p *sim.Proc) {
		if err := d.WriteBlocks(p, 3, pattern(3, 1, 4)); err != nil {
			t.Fatal(err)
		}
		buf := bytes.Repeat([]byte{0xff}, 2*BlockSize)
		if err := d.ReadBlocks(p, 4, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatal("never-written blocks next to a written one are not zero")
		}
	})
	snap := d.SnapshotStore()
	if _, ok := snap[4]; ok || len(snap) != 1 {
		t.Fatalf("snapshot holds %d blocks (block 4 present: %v), want only block 3", len(snap), ok)
	}
}

// TestZeroBlockCountsAsWritten: a block written with zeroes is part of
// the durable image, in SnapshotStore and in SaveStore, even though its
// bytes equal those of a never-written block.
func TestZeroBlockCountsAsWritten(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 2*extentBlocks, nil)
	k.RunProc(func(p *sim.Proc) {
		if err := d.WriteBlocks(p, 5, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
	})
	if data, ok := d.SnapshotStore()[5]; !ok || len(data) != BlockSize {
		t.Fatal("zero-filled written block missing from the snapshot")
	}
	var img bytes.Buffer
	if err := d.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	if got, want := img.Len(), 20+8+BlockSize; got != want {
		t.Fatalf("image is %d bytes, want %d (header plus one record)", got, want)
	}
	d2 := NewDisk(sim.NewKernel(), RZ57, 2*extentBlocks, nil)
	if err := d2.LoadStore(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.SnapshotStore()[5]; !ok {
		t.Fatal("zero-filled written block lost across save and load")
	}
}

// TestWriteCacheReadYourWritesAndFIFODestage checks the volatile cache
// over the extent store: cached blocks read back but are not durable,
// overflow destages oldest first (a rewrite keeps its place), and Flush
// destages the rest in order.
func TestWriteCacheReadYourWritesAndFIFODestage(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 4*extentBlocks, nil)
	d.EnableWriteCache(3)
	var applied []int64
	d.OnMediaWrite = func(blk int64) { applied = append(applied, blk) }
	order := []int64{20, 3, 40}
	k.RunProc(func(p *sim.Proc) {
		for _, blk := range order {
			writeRead(t, d, p, blk, pattern(blk, 1, 5))
		}
		if len(applied) != 0 || len(d.SnapshotStore()) != 0 {
			t.Fatalf("cached writes reached media: %v", applied)
		}
		// Rewrite block 20: newest bytes read back, FIFO slot unchanged.
		writeRead(t, d, p, 20, pattern(20, 1, 6))
		// Two more writes overflow the three-block cache twice.
		writeRead(t, d, p, 50, pattern(50, 1, 5))
		writeRead(t, d, p, 7, pattern(7, 1, 5))
		if want := []int64{20, 3}; !slices.Equal(applied, want) {
			t.Fatalf("destaged %v, want %v", applied, want)
		}
		snap := d.SnapshotStore()
		if len(snap) != 2 || !bytes.Equal(snap[20], pattern(20, 1, 6)) {
			t.Fatal("destaged block 20 is not its rewritten content")
		}
		if err := d.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	if want := []int64{20, 3, 40, 50, 7}; !slices.Equal(applied, want) {
		t.Fatalf("media-apply order %v, want %v", applied, want)
	}
	if got := d.Stats().Destages; got != 5 {
		t.Fatalf("Destages = %d, want 5", got)
	}
}

// TestOnMediaWriteSeesEachBlockLand: the hook fires once per block, after
// that block's copy and before the next one's, so a snapshot taken inside
// the hook holds exactly the blocks up to blk — the mid-transfer power-cut
// point the crash harness relies on.
func TestOnMediaWriteSeesEachBlockLand(t *testing.T) {
	const first, n = extentBlocks - 2, 2*extentBlocks + 3 // two chunks, three extents
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 4*extentBlocks, nil)
	data := pattern(first, n, 7)
	next := int64(first)
	d.OnMediaWrite = func(blk int64) {
		if blk != next {
			t.Fatalf("hook for block %d, want %d", blk, next)
		}
		next++
		snap := d.SnapshotStore()
		if int64(len(snap)) != blk-first+1 {
			t.Fatalf("at block %d the snapshot holds %d blocks, want %d", blk, len(snap), blk-first+1)
		}
		for b := int64(first); b <= blk; b++ {
			off := (b - first) * BlockSize
			if !bytes.Equal(snap[b], data[off:off+BlockSize]) {
				t.Fatalf("at block %d, block %d is not yet on media", blk, b)
			}
		}
	}
	k.RunProc(func(p *sim.Proc) {
		if err := d.WriteBlocks(p, first, data); err != nil {
			t.Fatal(err)
		}
	})
	if next != first+n {
		t.Fatalf("hook fired for %d blocks, want %d", next-first, n)
	}
}

// TestDiskImageDeterministic: two saves of the same state are identical,
// and Save→Load→Save round-trips byte for byte — whatever order the
// blocks were written in.
func TestDiskImageDeterministic(t *testing.T) {
	d := imageDisk(t)
	var a, b, c bytes.Buffer
	if err := d.SaveStore(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveStore(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one disk differ")
	}
	d2 := NewDisk(sim.NewKernel(), RZ57, d.NumBlocks(), nil)
	if err := d2.LoadStore(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := d2.SaveStore(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save, load, save does not round-trip")
	}
}

// imageDisk returns a disk with a scattered, out-of-order set of written
// blocks, one of them zero-filled.
func imageDisk(t testing.TB) *Disk {
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, 5*extentBlocks+3, nil)
	k.RunProc(func(p *sim.Proc) {
		for _, blk := range []int64{70, 2, 33, 15, 16, 71, 0} {
			if err := d.WriteBlocks(p, blk, pattern(blk, 1, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.WriteBlocks(p, 40, make([]byte, 3*BlockSize)); err != nil {
			t.Fatal(err)
		}
	})
	return d
}

// TestDiskLoadStoreRejectsCorrupt: every malformed image fails with an
// error wrapping ErrCorrupt and leaves the disk's media untouched.
func TestDiskLoadStoreRejectsCorrupt(t *testing.T) {
	src := imageDisk(t)
	var img bytes.Buffer
	if err := src.SaveStore(&img); err != nil {
		t.Fatal(err)
	}
	good := img.Bytes()
	const rec0 = 20 // offset of the first record's block number
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	put64 := func(b []byte, off int, v uint64) []byte {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
		return b
	}
	cases := map[string][]byte{
		"empty":        nil,
		"short header": good[:10],
		"bad magic":    mutate(func(b []byte) []byte { b[0] ^= 1; return b }),
		"block count":  mutate(func(b []byte) []byte { return put64(b, 4, uint64(src.NumBlocks()+1)) }),
		"huge count":   mutate(func(b []byte) []byte { return put64(b, 12, 1<<62) }),
		"out of range": mutate(func(b []byte) []byte { return put64(b, rec0, uint64(src.NumBlocks())) }),
		"negative blk": mutate(func(b []byte) []byte { return put64(b, rec0, ^uint64(0)) }),
		"repeated blk": mutate(func(b []byte) []byte { return put64(b, rec0+8+BlockSize, 0) }),
		"truncated":    good[:len(good)-1],
	}
	for name, data := range cases {
		d := imageDisk(t)
		before := d.SnapshotStore()
		err := d.LoadStore(bytes.NewReader(data))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if !sameStore(before, d.SnapshotStore()) {
			t.Errorf("%s: failed load changed the disk", name)
		}
	}
}

func sameStore(a, b map[int64][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for blk, data := range a {
		if !bytes.Equal(data, b[blk]) {
			return false
		}
	}
	return true
}

// FuzzDiskLoadStore: LoadStore never panics; it either fails with
// ErrCorrupt leaving the disk unchanged, or accepts an image that saves
// back to a canonical one loading to the same media.
func FuzzDiskLoadStore(f *testing.F) {
	src := imageDisk(f)
	var img bytes.Buffer
	if err := src.SaveStore(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	var empty bytes.Buffer
	if err := NewDisk(sim.NewKernel(), RZ57, src.NumBlocks(), nil).SaveStore(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add(img.Bytes()[:30])
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDisk(sim.NewKernel(), RZ57, src.NumBlocks(), nil)
		d.media = newMedia(d.nblocks)
		d.media.put(1, pattern(1, 1, 9))
		before := d.SnapshotStore()
		if err := d.LoadStore(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if !sameStore(before, d.SnapshotStore()) {
				t.Fatal("failed load changed the disk")
			}
			return
		}
		var canon bytes.Buffer
		if err := d.SaveStore(&canon); err != nil {
			t.Fatal(err)
		}
		d2 := NewDisk(sim.NewKernel(), RZ57, src.NumBlocks(), nil)
		if err := d2.LoadStore(bytes.NewReader(canon.Bytes())); err != nil {
			t.Fatalf("canonical re-save rejected: %v", err)
		}
		if !sameStore(d.SnapshotStore(), d2.SnapshotStore()) {
			t.Fatal("canonical re-save loads different media")
		}
	})
}

// TestDiskMediaAllocs gates the media store's host allocations:
// rewriting and reading written blocks allocate nothing, and a first
// write allocates at most one extent per 64 KB touched.
func TestDiskMediaAllocs(t *testing.T) {
	const runs = 20
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, (runs+3)*extentBlocks, nil) // AllocsPerRun adds a warm-up call
	buf := pattern(0, extentBlocks, 10)
	k.RunProc(func(p *sim.Proc) {
		mustIO := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		// A misaligned 64 KB run touches two extents.
		mustIO(d.WriteBlocks(p, 5, buf))
		if a := testing.AllocsPerRun(runs, func() { mustIO(d.WriteBlocks(p, 5, buf)) }); a != 0 {
			t.Errorf("rewrite of written blocks: %v allocs/op, want 0", a)
		}
		if a := testing.AllocsPerRun(runs, func() { mustIO(d.ReadBlocks(p, 5, buf)) }); a != 0 {
			t.Errorf("read of written blocks: %v allocs/op, want 0", a)
		}
		next := int64(2) // extents 0 and 1 are taken
		fresh := func() {
			mustIO(d.WriteBlocks(p, next*extentBlocks, buf))
			next++
		}
		if a := testing.AllocsPerRun(runs, fresh); a > 1 {
			t.Errorf("first write of an aligned 64 KB: %v allocs/op, want at most 1", a)
		}
	})
}

// BenchmarkDiskWrite64K measures one 64 KB write: over written blocks
// (rewrite) and onto never-written media (fresh, allocating its extent).
func BenchmarkDiskWrite64K(b *testing.B) {
	const extentsOnDisk = 1024
	b.Run("rewrite", func(b *testing.B) {
		k := sim.NewKernel()
		d := NewDisk(k, RZ57, extentsOnDisk*extentBlocks, nil)
		buf := pattern(0, extentBlocks, 11)
		k.RunProc(func(p *sim.Proc) {
			for x := int64(0); x < extentsOnDisk; x++ {
				_ = d.WriteBlocks(p, x*extentBlocks, buf)
			}
			b.ReportAllocs()
			b.SetBytes(MaxTransfer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = d.WriteBlocks(p, int64(i%extentsOnDisk)*extentBlocks, buf)
			}
		})
	})
	b.Run("fresh", func(b *testing.B) {
		k := sim.NewKernel()
		d := NewDisk(k, RZ57, extentsOnDisk*extentBlocks, nil)
		buf := pattern(0, extentBlocks, 12)
		k.RunProc(func(p *sim.Proc) {
			b.ReportAllocs()
			b.SetBytes(MaxTransfer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := int64(i % extentsOnDisk)
				if x == 0 && i > 0 {
					b.StopTimer()
					d.media = newMedia(d.nblocks)
					b.StartTimer()
				}
				_ = d.WriteBlocks(p, x*extentBlocks, buf)
			}
		})
	})
}

// BenchmarkDiskRead64K measures one 64 KB read of written blocks.
func BenchmarkDiskRead64K(b *testing.B) {
	const extentsOnDisk = 1024
	k := sim.NewKernel()
	d := NewDisk(k, RZ57, extentsOnDisk*extentBlocks, nil)
	buf := pattern(0, extentBlocks, 13)
	k.RunProc(func(p *sim.Proc) {
		for x := int64(0); x < extentsOnDisk; x++ {
			_ = d.WriteBlocks(p, x*extentBlocks, buf)
		}
		b.ReportAllocs()
		b.SetBytes(MaxTransfer)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.ReadBlocks(p, int64(i%extentsOnDisk)*extentBlocks, buf)
		}
	})
}
