package lfs

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/dev"
	"repro/internal/sim"
)

// checkDirtyIndex asserts the dirty index is exactly the dirty subset of
// the buffer cache, and that DirtyBytes is derived from it.
func checkDirtyIndex(t *testing.T, fs *FS, after string) {
	t.Helper()
	n := 0
	for k, b := range fs.bufs {
		if !b.dirty {
			continue
		}
		n++
		if fs.dirty[k] != b {
			t.Fatalf("after %s: dirty buffer %v missing from the index", after, k)
		}
	}
	for k, b := range fs.dirty {
		if !b.dirty || fs.bufs[k] != b {
			t.Fatalf("after %s: index entry %v is clean or not cached", after, k)
		}
	}
	if len(fs.dirty) != n || fs.DirtyBytes() != n*BlockSize {
		t.Fatalf("after %s: %d dirty buffers, index %d, DirtyBytes %d", after, n, len(fs.dirty), fs.DirtyBytes())
	}
}

// TestDirtyIndexMatchesBuffers drives a seeded random mix of writes,
// truncates, unlinks, syncs, cleaning and cache flushes, checking the
// dirty index against the buffer cache after every operation.
func TestDirtyIndexMatchesBuffers(t *testing.T) {
	// A small cache and write threshold so flushes and evictions happen
	// mid-operation; files grow past the direct blocks into indirect ones.
	e := newEnv(t, 32, 96, Options{MaxInodes: 64, BufferBytes: 96 * BlockSize, WriteThreshold: 24 * BlockSize})
	rng := rand.New(rand.NewSource(3))
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		files := map[string]*File{}
		for op := 0; op < 400; op++ {
			name := "/f" + itoa(rng.Intn(6))
			f := files[name]
			var what string
			switch r := rng.Intn(20); {
			case r < 9 || f == nil:
				what = "write"
				if f == nil {
					var err error
					if f, err = fs.Create(p, name); err != nil {
						t.Fatal(err)
					}
					files[name] = f
				}
				off := int64(rng.Intn(40)) * BlockSize / 2
				if _, err := f.WriteAt(p, pattern(byte(op), 1+rng.Intn(20*BlockSize)), off); err != nil {
					t.Fatal(err)
				}
			case r < 12:
				what = "truncate"
				if err := f.Truncate(p, uint64(rng.Intn(20*BlockSize))); err != nil {
					t.Fatal(err)
				}
			case r < 14:
				what = "unlink"
				if err := fs.Remove(p, name); err != nil {
					t.Fatal(err)
				}
				delete(files, name)
			case r < 17:
				what = "sync"
				if err := fs.Sync(p); err != nil {
					t.Fatal(err)
				}
				if fs.DirtyBytes() != 0 {
					t.Fatalf("op %d: %d dirty bytes after Sync", op, fs.DirtyBytes())
				}
			case r < 19:
				what = "clean"
				if _, err := fs.CleanSegments(p, fs.SelectCleanable(2)); err != nil {
					t.Fatal(err)
				}
			default:
				what = "flush caches"
				if err := fs.FlushCaches(p); err != nil {
					t.Fatal(err)
				}
				if len(fs.bufs) != 0 {
					t.Fatalf("op %d: %d buffers after FlushCaches", op, len(fs.bufs))
				}
			}
			checkDirtyIndex(t, fs, what)
		}
	})
}

// TestCleanerRelocationDirtiesIndex: blocks the cleaner relocates enter
// the dirty index, and the Sync that writes them empties it.
func TestCleanerRelocationDirtiesIndex(t *testing.T) {
	e := newEnv(t, 32, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		writeFile(t, p, fs, "/keep", pattern(1, 10*BlockSize))
		f := writeFile(t, p, fs, "/churn", pattern(2, 20*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(p, pattern(3, 20*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.FlushCaches(p); err != nil {
			t.Fatal(err)
		}
		n, err := fs.CleanSegments(p, fs.SelectCleanable(0))
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("cleaner relocated nothing")
		}
		checkDirtyIndex(t, fs, "cleaning")
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		checkDirtyIndex(t, fs, "sync")
		if fs.DirtyBytes() != 0 {
			t.Fatalf("%d dirty bytes after Sync", fs.DirtyBytes())
		}
	})
}

// TestSyncAfterTruncateSkipsDroppedBlocks: truncating or unlinking a
// file whose blocks are still dirty drops them from the dirty index, so
// the next Sync writes none of them.
func TestSyncAfterTruncateSkipsDroppedBlocks(t *testing.T) {
	const blocks = 40 // past the direct blocks: an indirect block is dirty too
	e := newEnv(t, 64, 64, Options{MaxInodes: 64})
	e.run(t, func(p *sim.Proc) {
		fs := e.fs
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		f := writeFile(t, p, fs, "/t", pattern(1, blocks*BlockSize))
		writeFile(t, p, fs, "/u", pattern(2, blocks*BlockSize))
		if err := f.Truncate(p, BlockSize); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove(p, "/u"); err != nil {
			t.Fatal(err)
		}
		checkDirtyIndex(t, fs, "truncate and unlink")
		data, meta := fs.dirtyList()
		for _, b := range append(data, meta...) {
			if b.key.inum == f.inum && b.key.lbn != 0 {
				t.Errorf("truncated block %d still dirty", b.key.lbn)
			}
		}
		before := fs.Stats().BytesWritten
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		// One data block, plus summary, inode and directory blocks: far
		// below either file's dropped blocks.
		if w := (fs.Stats().BytesWritten - before) / BlockSize; w >= blocks/2 {
			t.Fatalf("Sync wrote %d blocks after the dirty blocks were dropped", w)
		}
		checkDirtyIndex(t, fs, "sync")
	})
}

// TestMigratevCleansStagedMetaInIndex: staging a dirty indirect block
// captures its content, so Migratev removes it from the dirty index; a
// dirty data block is skipped and stays indexed.
func TestMigratevCleansStagedMetaInIndex(t *testing.T) {
	const segBlocks, diskSegs = 64, 64
	k := sim.NewKernel()
	amap := addr.New(segBlocks, diskSegs, addr.Geom{Vols: 1, SegsPerVol: 4})
	disk := dev.NewDisk(k, dev.RZ57, int64(segBlocks*diskSegs), nil)
	k.RunProc(func(p *sim.Proc) {
		fs, err := Format(p, DiskDevice{disk}, amap, Options{MaxInodes: 64, CacheSegs: 2})
		if err != nil {
			t.Fatal(err)
		}
		f := writeFile(t, p, fs, "/m", pattern(1, (NDirect+8)*BlockSize))
		if err := fs.Sync(p); err != nil {
			t.Fatal(err)
		}
		refs, err := fs.FileBlockRefs(p, f.inum)
		if err != nil {
			t.Fatal(err)
		}
		var data, meta []BlockRef
		for _, r := range refs {
			if r.Lbn >= 0 {
				data = append(data, r)
			} else {
				meta = append(meta, r)
			}
		}
		if len(meta) != 1 {
			t.Fatalf("%d indirect blocks, want 1", len(meta))
		}
		// Dirty one data block the migrator must then skip.
		if _, err := f.WriteAt(p, pattern(2, BlockSize), int64(NDirect+2)*BlockSize); err != nil {
			t.Fatal(err)
		}
		cacheSeg, err := fs.AllocCacheSegment(p, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		tertSeg := amap.SegForIndex(0)
		res, err := fs.Migratev(p, data, nil, tertSeg, cacheSeg, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkDirtyIndex(t, fs, "data migration")
		single := fs.bufs[bufKey{f.inum, LbnSingle}]
		if single == nil || !single.dirty {
			t.Fatal("flipping indirect pointers did not dirty the indirect block")
		}
		if b := fs.bufs[bufKey{f.inum, NDirect + 2}]; b == nil || !b.dirty || res.Applied[NDirect+2] {
			t.Fatal("dirty data block was migrated or cleaned")
		}
		if _, err := fs.Migratev(p, meta, nil, tertSeg, cacheSeg, res.NextOff); err != nil {
			t.Fatal(err)
		}
		checkDirtyIndex(t, fs, "meta migration")
		if single.dirty || fs.dirty[single.key] != nil {
			t.Fatal("staged indirect block still dirty")
		}
		if err := fs.Sync(p); err != nil && !errors.Is(err, ErrNoSpace) {
			t.Fatal(err)
		}
		checkDirtyIndex(t, fs, "sync")
	})
}
