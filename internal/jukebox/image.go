package jukebox

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/dev"
)

// Image format (little-endian): a 16-byte header of magic, volume count
// and segment size; then per volume a 16-byte header of actual segment
// count, flags (bit 0: full) and record count, followed by one record per
// written segment — its 4-byte segment number and the segment's bytes.
// SaveStore writes each volume's records in ascending segment order, so
// equal media state gives equal bytes.

const imageMagic = 0x484a424b // "HJBK"

// SaveStore writes every volume's contents (sparse) to a stream so the
// cmd/hlfs tool can persist a jukebox across runs.
func (j *Jukebox) SaveStore(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(j.vols)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(j.segBytes))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var segs []int
	for _, v := range j.vols {
		var vh [16]byte
		binary.LittleEndian.PutUint32(vh[0:], uint32(v.actualSegs))
		flags := uint32(0)
		if v.full {
			flags = 1
		}
		binary.LittleEndian.PutUint32(vh[4:], flags)
		binary.LittleEndian.PutUint64(vh[8:], uint64(len(v.store)))
		if _, err := bw.Write(vh[:]); err != nil {
			return err
		}
		segs = segs[:0]
		for seg := range v.store {
			segs = append(segs, seg)
		}
		slices.Sort(segs)
		for _, seg := range segs {
			var rec [4]byte
			binary.LittleEndian.PutUint32(rec[:], uint32(seg))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
			if _, err := bw.Write(v.store[seg]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadStore replaces the jukebox's media contents from a SaveStore
// stream. The stream is decoded in full before anything is replaced, so
// on error the jukebox is unchanged; decode failures wrap dev.ErrCorrupt.
func (j *Jukebox) LoadStore(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: jukebox header: %w", dev.ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != imageMagic {
		return fmt.Errorf("%w: jukebox: bad image magic", dev.ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint32(hdr[4:]); n != uint32(len(j.vols)) {
		return fmt.Errorf("%w: jukebox: image has %d volumes, device has %d", dev.ErrCorrupt, n, len(j.vols))
	}
	if sb := binary.LittleEndian.Uint32(hdr[8:]); sb != uint32(j.segBytes) {
		return fmt.Errorf("%w: jukebox: image segment size %d, device %d", dev.ErrCorrupt, sb, j.segBytes)
	}
	type volState struct {
		actualSegs int
		full       bool
		store      map[int][]byte
	}
	fresh := make([]volState, len(j.vols))
	for vi := range fresh {
		var vh [16]byte
		if _, err := io.ReadFull(br, vh[:]); err != nil {
			return fmt.Errorf("%w: jukebox volume %d header: %w", dev.ErrCorrupt, vi, err)
		}
		actual := binary.LittleEndian.Uint32(vh[0:])
		flags := binary.LittleEndian.Uint32(vh[4:])
		count := binary.LittleEndian.Uint64(vh[8:])
		nominal := uint64(j.vols[vi].nominalSegs)
		switch {
		case uint64(actual) > nominal:
			return fmt.Errorf("%w: jukebox volume %d: %d actual segments, %d nominal", dev.ErrCorrupt, vi, actual, nominal)
		case flags > 1:
			return fmt.Errorf("%w: jukebox volume %d: unknown flags %#x", dev.ErrCorrupt, vi, flags)
		case count > nominal:
			return fmt.Errorf("%w: jukebox volume %d: %d records for %d segments", dev.ErrCorrupt, vi, count, nominal)
		}
		vs := volState{actualSegs: int(actual), full: flags == 1, store: make(map[int][]byte, count)}
		for i := uint64(0); i < count; i++ {
			var rec [4]byte
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: jukebox volume %d record %d: %w", dev.ErrCorrupt, vi, i, err)
			}
			seg := binary.LittleEndian.Uint32(rec[:])
			if uint64(seg) >= nominal {
				return fmt.Errorf("%w: jukebox volume %d record %d: segment %d out of range [0,%d)", dev.ErrCorrupt, vi, i, seg, nominal)
			}
			if _, dup := vs.store[int(seg)]; dup {
				return fmt.Errorf("%w: jukebox volume %d record %d: segment %d repeated", dev.ErrCorrupt, vi, i, seg)
			}
			data := make([]byte, j.segBytes)
			if _, err := io.ReadFull(br, data); err != nil {
				return fmt.Errorf("%w: jukebox volume %d record %d: %w", dev.ErrCorrupt, vi, i, err)
			}
			vs.store[int(seg)] = data
		}
		fresh[vi] = vs
	}
	for vi, vs := range fresh {
		v := j.vols[vi]
		v.actualSegs, v.full, v.store = vs.actualSegs, vs.full, vs.store
	}
	return nil
}
