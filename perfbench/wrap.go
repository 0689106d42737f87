package main

import (
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/sim"
)

// The traced run interposes on the two device interfaces the stack is
// assembled from. Each wrapper embeds the concrete device, so every
// optional interface the stack type-asserts on it (dev.Flusher on disks;
// VolumeLoaded, IdleHealthyDrives, Stats, Profile and EraseVolume on
// changers) is forwarded unchanged — otherwise flush barriers and fetch
// routing would silently change under tracing. The wrappers only count:
// they consume no virtual time and draw no randomness, and the benchmark
// checks that a traced round reproduces the untraced virtual-time
// metrics exactly.

// ioCounts is what one wrapped device family saw: operations, bytes, and
// virtual time spent inside the wrapped calls (device service plus any
// queueing for arms, drives and buses).
type ioCounts struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	Inside                  sim.Time
}

func (c *ioCounts) record(p *sim.Proc, t0 sim.Time, n int, write bool) {
	if write {
		c.Writes++
		c.BytesWritten += int64(n)
	} else {
		c.Reads++
		c.BytesRead += int64(n)
	}
	c.Inside += p.Now() - t0
}

// tracedDisk is a dev.BlockDev wrapper counting into a shared ioCounts.
type tracedDisk struct {
	*dev.Disk
	c *ioCounts
}

func (d tracedDisk) ReadBlocks(p *sim.Proc, blk int64, buf []byte) error {
	t0 := p.Now()
	err := d.Disk.ReadBlocks(p, blk, buf)
	d.c.record(p, t0, len(buf), false)
	return err
}

func (d tracedDisk) WriteBlocks(p *sim.Proc, blk int64, buf []byte) error {
	t0 := p.Now()
	err := d.Disk.WriteBlocks(p, blk, buf)
	d.c.record(p, t0, len(buf), true)
	return err
}

// tracedJukebox is a jukebox.Footprint wrapper counting into ioCounts.
type tracedJukebox struct {
	*jukebox.Jukebox
	c *ioCounts
}

func (j tracedJukebox) ReadSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	t0 := p.Now()
	err := j.Jukebox.ReadSegment(p, vol, seg, buf)
	j.c.record(p, t0, len(buf), false)
	return err
}

func (j tracedJukebox) WriteSegment(p *sim.Proc, vol, seg int, buf []byte) error {
	t0 := p.Now()
	err := j.Jukebox.WriteSegment(p, vol, seg, buf)
	j.c.record(p, t0, len(buf), true)
	return err
}
