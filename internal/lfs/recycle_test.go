package lfs

import (
	"bytes"
	"errors"
	"runtime"
	"sort"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
	"repro/internal/stripe"
)

// TestAssemblyBufferNotRetained pins the ownership rule that lets the
// segment writer reuse one assembly buffer: every device copies on write,
// so scribbling over the buffer after the log write must not change what
// reads back.
func TestAssemblyBufferNotRetained(t *testing.T) {
	const segBlocks, diskSegs = 32, 64
	const nblocks = segBlocks * diskSegs
	disks := func(k *sim.Kernel, n int) []dev.BlockDev {
		out := make([]dev.BlockDev, n)
		for i := range out {
			out[i] = dev.NewDisk(k, dev.RZ57, nblocks/int64(n), nil)
		}
		return out
	}
	cases := []struct {
		name string
		make func(k *sim.Kernel) dev.BlockDev
	}{
		{"disk", func(k *sim.Kernel) dev.BlockDev { return dev.NewDisk(k, dev.RZ57, nblocks, nil) }},
		{"disk-writecache", func(k *sim.Kernel) dev.BlockDev {
			d := dev.NewDisk(k, dev.RZ57, nblocks, nil)
			d.EnableWriteCache(64)
			return d
		}},
		{"concat", func(k *sim.Kernel) dev.BlockDev { return stripe.MustNew(disks(k, 2)...) }},
		{"interleave", func(k *sim.Kernel) dev.BlockDev { return stripe.MustNewInterleave(4, false, disks(k, 4)...) }},
		{"interleave-parity", func(k *sim.Kernel) dev.BlockDev { return stripe.MustNewInterleave(4, true, disks(k, 4)...) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel()
			bd := c.make(k)
			amap := addr.New(segBlocks, int(bd.NumBlocks())/segBlocks)
			k.RunProc(func(p *sim.Proc) {
				fs, err := Format(p, DiskDevice{bd}, amap, Options{MaxInodes: 64})
				if err != nil {
					t.Fatal(err)
				}
				files := map[string][]byte{}
				for i := 0; i < 6; i++ {
					name := "/f" + itoa(i)
					files[name] = pattern(byte(i+1), (i*7+1)*BlockSize+i*100)
					writeFile(t, p, fs, name, files[name])
					if err := fs.Sync(p); err != nil {
						t.Fatal(err)
					}
					asm := fs.asm[:cap(fs.asm)]
					for j := range asm {
						asm[j] = 0xA5
					}
				}
				if err := fs.FlushCaches(p); err != nil {
					t.Fatal(err)
				}
				for name, want := range files {
					f, err := fs.Open(p, name)
					if err != nil {
						t.Fatal(err)
					}
					if got := readAll(t, p, f); !bytes.Equal(got, want) {
						t.Fatalf("%s: contents changed after the assembly buffer was rewritten", name)
					}
				}
			})
		})
	}
}

// TestRecycledBlocksReadZero checks that recycled cache blocks are handed
// out zeroed: holes and fresh tails of files written after heavy eviction
// must still read as zeros.
func TestRecycledBlocksReadZero(t *testing.T) {
	e := newEnv(t, 32, 128, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		// Churn the cache so the free list fills with non-zero blocks.
		writeFile(t, p, fs, "/churn", pattern(7, 300*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// A sparse file: one byte far into the file, then read the hole.
		f, err := fs.Create(p, "/sparse")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, []byte{1}, 20*BlockSize+5); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, p, f)
		for i, c := range got[:20*BlockSize+5] {
			if c != 0 {
				t.Fatalf("byte %d of hole is %#x, want 0", i, c)
			}
		}
		if got[20*BlockSize+5] != 1 {
			t.Fatal("written byte lost")
		}
		if len(fs.free) > maxFreeBlocks || len(fs.retired)+len(fs.free) > maxFreeBlocks {
			t.Fatalf("recycler holds %d free + %d retired blocks, cap %d", len(fs.free), len(fs.retired), maxFreeBlocks)
		}
	})
}

// TestReadWithDirtyCacheReturnsTypedError: a clustered read into a cache
// whose every other buffer is dirty cannot keep the requested block
// resident. It must fail with ErrBufferCacheFull, not panic, and succeed
// once a Sync drains the dirty set.
func TestReadWithDirtyCacheReturnsTypedError(t *testing.T) {
	// One-segment write threshold (256 blocks) above the 64-block cache:
	// dirty data piles up unflushed.
	e := newEnv(t, 256, 32, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		want := pattern(3, 32*BlockSize)
		b := writeFile(t, p, fs, "/b", want)
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		fs.DropFileBuffers(p, b.Inum())
		writeFile(t, p, fs, "/a", pattern(4, 80*BlockSize))
		buf := make([]byte, 16*BlockSize)
		if _, err := b.ReadAt(p, buf, 0); !errors.Is(err, ErrBufferCacheFull) {
			t.Fatalf("read with an all-dirty cache: err = %v, want ErrBufferCacheFull", err)
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, p, b); !bytes.Equal(got, want) {
			t.Fatal("read after Sync returned wrong data")
		}
	})
}

// cleanRelocationDigest runs a cleaner pass over segments holding data
// blocks whose single indirect blocks live elsewhere and have been evicted
// by a small buffer cache, so the flush must load several parents from
// the device. It reports the virtual time and counters the pass took.
func cleanRelocationDigest(t *testing.T) [3]int64 {
	e := newEnv(t, 32, 128, Options{MaxInodes: 64, BufferBytes: 64 * BlockSize})
	var d [3]int64
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		var files []*File
		for i := 0; i < 8; i++ {
			files = append(files, writeFile(t, p, fs, "/f"+itoa(i), pattern(byte(i), 30*BlockSize)))
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// The segments holding the files' direct blocks are the ones to
		// clean. Rewriting one indirect-mapped block per file moves every
		// live single indirect block out of them.
		segSet := map[addr.SegNo]bool{}
		for _, f := range files {
			for _, a := range fs.inodes[f.Inum()].Direct {
				segSet[fs.amap.SegOf(a)] = true
			}
			if _, err := f.WriteAt(p, pattern(50, BlockSize), 12*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		writeFile(t, p, fs, "/filler", pattern(99, 120*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		var segs []addr.SegNo
		for seg := range segSet {
			if fs.seguse[seg].Flags&SegActive == 0 {
				segs = append(segs, seg)
			}
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
		reads := fs.Stats().DevReads
		t0 := p.Now()
		n, err := fs.CleanSegments(p, segs)
		if err != nil {
			t.Fatal(err)
		}
		d = [3]int64{int64(p.Now() - t0), int64(n), fs.Stats().DevReads - reads}
	})
	return d
}

// TestCleanerParentLoadsDeterministic: loading the evicted parents of
// relocated blocks costs device time, so their order must not follow Go
// map iteration. Two runs of the same scenario must agree exactly.
func TestCleanerParentLoadsDeterministic(t *testing.T) {
	a := cleanRelocationDigest(t)
	for i := 0; i < 2; i++ {
		if b := cleanRelocationDigest(t); b != a {
			t.Fatalf("run %d differs: (virtual ns, relocated, dev reads) = %v, first run %v", i+2, b, a)
		}
	}
}

// TestSequentialWriteAllocBudget gates the write path's host allocation:
// a synced 1 MB sequential overwrite may allocate at most 1.2 MB per MB
// written, once the file's cache blocks exist. Allocation does not depend
// on the machine, so it can be asserted where wall time cannot. Almost
// all of the remainder is the disk's sparse store materialising blocks
// the log reaches for the first time.
func TestSequentialWriteAllocBudget(t *testing.T) {
	const ops, size = 24, 1 << 20
	k, fs := benchFS(t)
	var alloc uint64
	k.RunProc(func(p *sim.Proc) {
		f, err := fs.Create(p, "/bench")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, size)
		write := func() {
			if _, err := f.WriteAt(p, buf, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		write() // populate the cache and the assembly buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			write()
		}
		runtime.ReadMemStats(&m1)
		alloc = m1.TotalAlloc - m0.TotalAlloc
	})
	perMB := float64(alloc) / float64(ops*size)
	t.Logf("%.3f MB allocated per MB written", perMB)
	if perMB > 1.2 {
		t.Fatalf("sequential write allocates %.3f MB per MB, budget 1.2", perMB)
	}
}
