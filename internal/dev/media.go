package dev

import "math/bits"

// extentBlocks is the number of blocks in one media-store extent: one
// MaxTransfer, so a chunked transfer touches at most two extents.
const extentBlocks = MaxTransfer / BlockSize

// extent is one lazily allocated run of extentBlocks blocks of media.
type extent [MaxTransfer]byte

// An extent's written bitmap is a uint16: one bit per block.
const _ = uint16(1<<extentBlocks - 1)

// media is a disk's durable image: an extent table indexed by
// blk/extentBlocks, each extent allocated on its first write, plus a
// bitmap per extent of the blocks ever written. The bitmap lives outside
// the extent so an extent is exactly 64 KB (a power-of-two size class),
// and a block written with zeroes stays distinct from a never-written one.
// A block read or write is index arithmetic, not a map lookup.
type media struct {
	store   []*extent
	written []uint16
}

// newMedia returns an empty image of nblocks blocks.
func newMedia(nblocks int64) media {
	n := (nblocks + extentBlocks - 1) / extentBlocks
	return media{store: make([]*extent, n), written: make([]uint16, n)}
}

// block returns blk's bytes, allocating its extent on first touch when
// alloc is set; nil means the extent was never written. Never-written
// blocks inside an allocated extent read as zeroes.
func (m *media) block(blk int64, alloc bool) []byte {
	x, off := blk/extentBlocks, blk%extentBlocks*BlockSize
	e := m.store[x]
	if e == nil {
		if !alloc {
			return nil
		}
		e = new(extent)
		m.store[x] = e
	}
	return e[off : off+BlockSize]
}

// put stores one block and marks it written.
func (m *media) put(blk int64, data []byte) {
	copy(m.block(blk, true), data)
	m.mark(blk)
}

// mark records blk as written.
func (m *media) mark(blk int64) {
	m.written[blk/extentBlocks] |= 1 << (blk % extentBlocks)
}

// isWritten reports whether blk was ever written.
func (m *media) isWritten(blk int64) bool {
	return m.written[blk/extentBlocks]&(1<<(blk%extentBlocks)) != 0
}

// count is the number of written blocks.
func (m *media) count() int {
	n := 0
	for _, w := range m.written {
		n += bits.OnesCount16(w)
	}
	return n
}

// each calls fn for every written block in ascending block order.
func (m *media) each(fn func(blk int64, data []byte)) {
	for x, w := range m.written {
		for w != 0 {
			i := int64(bits.TrailingZeros16(w))
			w &^= 1 << i
			blk := int64(x)*extentBlocks + i
			fn(blk, m.block(blk, false))
		}
	}
}
