package dev

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Image persistence: a disk's sparse backing store can be saved to and
// loaded from a stream, so the cmd/hlfs tool can operate on file system
// images across process runs (the simulation state is genuinely on "media").
//
// Format (little-endian): a 20-byte header of magic, block count and
// record count, then one record per written block — its 8-byte block
// number and BlockSize bytes of data. SaveStore writes records in
// ascending block order, so equal media state gives equal bytes.

const imageMagic = 0x48494d47 // "HIMG"

// ErrCorrupt is wrapped by every error a media-image decoder returns for
// a stream it cannot accept: bad magic, geometry mismatch, out-of-range
// or duplicate records, or truncation.
var ErrCorrupt = errors.New("dev: corrupt media image")

// SaveStore writes the disk's durable contents (sparse: only written
// blocks, in ascending order).
func (d *Disk) SaveStore(w io.Writer) error {
	bw := bufio.NewWriter(w)
	count := d.media.count()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(d.nblocks))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(count))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var err error
	d.media.each(func(blk int64, data []byte) {
		if err != nil {
			return
		}
		var rec [8]byte
		binary.LittleEndian.PutUint64(rec[:], uint64(blk))
		if _, err = bw.Write(rec[:]); err == nil {
			_, err = bw.Write(data)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// LoadStore replaces the disk's durable contents from a stream written by
// SaveStore. The image's block count must match the disk's. The stream is
// decoded in full before anything is replaced, so on error the disk is
// unchanged; decode failures wrap ErrCorrupt.
func (d *Disk) LoadStore(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: header: %w", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != imageMagic {
		return fmt.Errorf("%w: bad image magic", ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint64(hdr[4:]); n != uint64(d.nblocks) {
		return fmt.Errorf("%w: image has %d blocks, disk has %d", ErrCorrupt, n, d.nblocks)
	}
	count := binary.LittleEndian.Uint64(hdr[12:])
	if count > uint64(d.nblocks) {
		return fmt.Errorf("%w: %d records for a %d-block disk", ErrCorrupt, count, d.nblocks)
	}
	fresh := newMedia(d.nblocks)
	var rec [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("%w: record %d: %w", ErrCorrupt, i, err)
		}
		blk := binary.LittleEndian.Uint64(rec[:])
		if blk >= uint64(d.nblocks) {
			return fmt.Errorf("%w: record %d: block %d out of range [0,%d)", ErrCorrupt, i, blk, d.nblocks)
		}
		if fresh.isWritten(int64(blk)) {
			return fmt.Errorf("%w: record %d: block %d repeated", ErrCorrupt, i, blk)
		}
		// The record's data lands straight in its extent.
		if _, err := io.ReadFull(br, fresh.block(int64(blk), true)); err != nil {
			return fmt.Errorf("%w: record %d: %w", ErrCorrupt, i, err)
		}
		fresh.mark(int64(blk))
	}
	d.media = fresh
	return nil
}
