package lfs

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The buffer cache holds file blocks keyed by (inode, logical block
// number); negative lbns name a file's indirect blocks. Keying by identity
// rather than device address is essential in a log-structured file system:
// a dirty block has no address yet (it gets one when its partial segment is
// assembled), and relocation by the cleaner changes addresses without
// changing identity.

type bufKey struct {
	inum uint32
	lbn  int32
}

type buf struct {
	key   bufKey
	data  []byte
	dirty bool
	// addr is the media address the block was read from or last written
	// to; NilBlock for newly created blocks.
	addr addr.BlockNo

	prev, next *buf // LRU list; head = most recently used
}

// lruRemove unlinks b from the LRU list.
func (fs *FS) lruRemove(b *buf) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if fs.lruHead == b {
		fs.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if fs.lruTail == b {
		fs.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}

// lruFront moves b to the most-recently-used position.
func (fs *FS) lruFront(b *buf) {
	if fs.lruHead == b {
		return
	}
	fs.lruRemove(b)
	b.next = fs.lruHead
	if fs.lruHead != nil {
		fs.lruHead.prev = b
	}
	fs.lruHead = b
	if fs.lruTail == nil {
		fs.lruTail = b
	}
}

// evictLocked discards clean buffers from the LRU tail until the cache
// fits its memory budget. Dirty buffers are pinned, and so is the MRU
// head: it is the buffer a caller just inserted and may still be about to
// mutate — evicting it would orphan the caller's pointer and lose the
// update.
func (fs *FS) evictLocked() {
	for fs.bufBytes > fs.opts.BufferBytes {
		v := fs.lruTail
		for v != nil && (v.dirty || v == fs.lruHead) {
			v = v.prev
		}
		if v == nil {
			return // everything dirty; flush will drain
		}
		fs.dropBuf(v)
	}
}

// dropBuf removes b from the cache, discarding any unwritten update, and
// retires its data block. The block is not reusable yet: the caller, or a
// caller up the stack, may still hold b (evictLocked protects only the MRU
// head), so it waits on the retired list until the next entry point's
// acquire.
func (fs *FS) dropBuf(b *buf) {
	fs.markClean(b)
	fs.lruRemove(b)
	delete(fs.bufs, b.key)
	fs.bufBytes -= BlockSize
	fs.retire(b.data)
}

// maxFreeBlocks caps the block free list, and with it the retired list
// feeding it: a bound on the memory the recycler keeps beyond the cache
// budget (256 blocks = 1 MB).
const maxFreeBlocks = 256

// retire queues a block buffer no cache entry references any more for
// reuse after the current entry point. Blocks beyond the free-list cap are
// left to the garbage collector.
func (fs *FS) retire(data []byte) {
	if len(fs.retired)+len(fs.free) < maxFreeBlocks {
		fs.retired = append(fs.retired, data)
	}
}

// acquire takes the file system lock for an entry point. It is also the
// recycling safe point: every *buf an earlier entry point could hold died
// with that call, so blocks retired since then join the free list.
func (fs *FS) acquire(p *sim.Proc) {
	fs.lock.Acquire(p)
	fs.free = append(fs.free, fs.retired...)
	clear(fs.retired)
	fs.retired = fs.retired[:0]
}

// newBlock returns a zeroed BlockSize buffer, recycled from the free list
// when one is available.
func (fs *FS) newBlock() []byte {
	n := len(fs.free)
	if n == 0 {
		return make([]byte, BlockSize)
	}
	b := fs.free[n-1]
	fs.free[n-1] = nil
	fs.free = fs.free[:n-1]
	clear(b)
	return b
}

// assembly returns the FS-owned staging buffer, n bytes long, in which a
// partial segment is assembled (or a read cluster lands) before its one
// large device transfer. The contents are unspecified. It is valid only
// until the next assembly call; every device copies on write, so the
// buffer never outlives the WriteBlocks call it was assembled for.
func (fs *FS) assembly(n int) []byte {
	if cap(fs.asm) < n {
		fs.asm = make([]byte, n)
	}
	return fs.asm[:n]
}

// lookupBuf finds a cached block without touching the device.
func (fs *FS) lookupBuf(inum uint32, lbn int32) *buf {
	b, ok := fs.bufs[bufKey{inum, lbn}]
	if ok {
		fs.lruFront(b)
		fs.stats.CacheHits++
		return b
	}
	fs.stats.CacheMisses++
	return nil
}

// insertBuf adds a block to the cache. data must be BlockSize long and is
// owned by the cache afterwards.
func (fs *FS) insertBuf(inum uint32, lbn int32, data []byte, at addr.BlockNo, dirty bool) *buf {
	key := bufKey{inum, lbn}
	if old, ok := fs.bufs[key]; ok {
		fs.dropBuf(old)
	}
	b := &buf{key: key, data: data, addr: at}
	fs.bufs[key] = b
	fs.bufBytes += BlockSize
	if dirty {
		fs.markDirty(b)
	}
	fs.lruFront(b)
	fs.evictLocked()
	return b
}

// markDirty flags a buffer for the next segment write. fs.dirty indexes
// exactly the buffers with dirty set: markDirty and markClean are the
// only writers of the flag, so the segment writer visits dirty buffers
// without scanning the whole cache.
func (fs *FS) markDirty(b *buf) {
	if !b.dirty {
		b.dirty = true
		fs.dirty[b.key] = b
	}
}

// markClean clears a buffer's dirty flag: its content is on media, or
// is being discarded.
func (fs *FS) markClean(b *buf) {
	if b.dirty {
		b.dirty = false
		delete(fs.dirty, b.key)
	}
}

// readBlockAt performs a timed device read of a single block into a fresh
// cache block.
func (fs *FS) readBlockAt(p *sim.Proc, at addr.BlockNo) ([]byte, error) {
	data := fs.newBlock()
	if err := fs.dev.ReadBlocks(p, at, data); err != nil {
		return nil, err
	}
	fs.stats.DevReads++
	fs.stats.BytesRead += BlockSize
	return data, nil
}

// getBlock returns the buffer for (inum, lbn), reading it from the device
// at address at when not cached. If at is NilBlock a zero block is
// created (not yet dirty — callers mark it).
func (fs *FS) getBlock(p *sim.Proc, inum uint32, lbn int32, at addr.BlockNo) (*buf, error) {
	if b := fs.lookupBuf(inum, lbn); b != nil {
		return b, nil
	}
	var data []byte
	if at == addr.NilBlock {
		data = fs.newBlock()
	} else {
		var err error
		data, err = fs.readBlockAt(p, at)
		if err != nil {
			return nil, err
		}
	}
	return fs.insertBuf(inum, lbn, data, at, false), nil
}

// dirtyList returns the dirty buffers partitioned into data (lbn >= 0) and
// meta (lbn < 0) sets, each sorted for deterministic layout.
func (fs *FS) dirtyList() (data, meta []*buf) {
	for _, b := range fs.dirty {
		if b.key.lbn >= 0 {
			data = append(data, b)
		} else {
			meta = append(meta, b)
		}
	}
	sortBufs(data)
	sortBufs(meta)
	return data, meta
}

// sortBufs orders buffers by inum, then lbn ascending (meta lbns are
// negative; more deeply nested blocks have lower lbns and sort first,
// which is harmless since addresses are pre-assigned).
func sortBufs(bs []*buf) {
	slices.SortFunc(bs, func(a, b *buf) int { return cmpKey(a.key, b.key) })
}

func cmpKey(a, b bufKey) int {
	if c := cmp.Compare(a.inum, b.inum); c != 0 {
		return c
	}
	return cmp.Compare(a.lbn, b.lbn)
}

// DirtyBytes reports bytes of dirty data awaiting a segment write.
func (fs *FS) DirtyBytes() int { return len(fs.dirty) * BlockSize }

// String renders cache occupancy for debugging.
func (fs *FS) cacheString() string {
	return fmt.Sprintf("bufcache: %d/%d bytes, %d dirty", fs.bufBytes, fs.opts.BufferBytes, fs.DirtyBytes())
}
