package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/migrate"
	"repro/internal/sim"
	"repro/internal/svc"
)

// The host-CPU copy-cost model of the paper's HP 9000/370 (the same
// rates the paper-table rigs use), so a buffered write or a cache-hit
// read takes nonzero virtual time.
const (
	assemblyCopyRate = 1880 * 1024
	userCopyRate     = 3150 * 1024
)

const segBlocks = 256 // 1 MB segments

// rigSpec sizes one HighLight instance.
type rigSpec struct {
	Spindles    int  // RZ57 disks in the farm
	SpindleSegs int  // capacity of each, in segments
	StripeUnit  int  // interleave unit in blocks (0 = concatenate)
	SharedBus   bool // disk and changer on one SCSI bus (else a channel each)
	Vols        int  // MO6300 cartridges
	SegsPerVol  int
	CacheSegs   int // segment cache lines (0 = the core default, 1/4 of the disk)
	Streams     int // tertiary I/O streams and VolStripe
}

// rig is one built instance plus the handles the benchmark measures it by.
type rig struct {
	k     *sim.Kernel
	hl    *core.HighLight
	fe    *svc.FrontEnd // nil unless the workload reads through svc
	disks []*dev.Disk
	juke  *jukebox.Jukebox
	pat   *pattern

	// Populated in traced rounds only.
	devIO, jukeIO *ioCounts
}

func newRig(spec rigSpec, seed uint64, traced bool) (*rig, error) {
	k := sim.NewKernel()
	r := &rig{k: k, pat: newPattern(seed)}
	if traced {
		r.devIO, r.jukeIO = &ioCounts{}, &ioCounts{}
	}
	var diskBus, jukeBus *dev.Bus
	if spec.SharedBus {
		diskBus = dev.NewBus(k, "scsi", dev.SCSIBusRate)
		jukeBus = diskBus
	} else {
		// Each spindle on its own channel (the shared 3.9 MB/s bus would
		// cap the farm at about two disks), the changer on its own bus.
		jukeBus = dev.NewBus(k, "scsi-changer", dev.SCSIBusRate)
	}
	var farm []dev.BlockDev
	for i := 0; i < spec.Spindles; i++ {
		d := dev.NewDisk(k, dev.RZ57, int64(spec.SpindleSegs*segBlocks), diskBus)
		r.disks = append(r.disks, d)
		if traced {
			farm = append(farm, tracedDisk{d, r.devIO})
		} else {
			farm = append(farm, d)
		}
	}
	juke, err := jukebox.New(k, jukebox.MO6300, 2, spec.Vols, spec.SegsPerVol, segBlocks*lfs.BlockSize, jukeBus)
	if err != nil {
		return nil, err
	}
	r.juke = juke
	var fp jukebox.Footprint = juke
	if traced {
		fp = tracedJukebox{juke, r.jukeIO}
	}
	cfg := core.Config{
		SegBlocks:        segBlocks,
		Disks:            farm,
		StripeUnit:       spec.StripeUnit,
		Streams:          spec.Streams,
		VolStripe:        spec.Streams,
		Jukeboxes:        []jukebox.Footprint{fp},
		CacheSegs:        spec.CacheSegs,
		MaxInodes:        4096,
		AssemblyCopyRate: assemblyCopyRate,
		UserCopyRate:     userCopyRate,
		Seed:             seed,
	}
	k.RunProc(func(p *sim.Proc) {
		r.hl, err = core.New(p, cfg, true)
	})
	if err != nil {
		k.Stop()
		return nil, fmt.Errorf("building rig: %w", err)
	}
	return r, nil
}

// daemons runs the background processes of a measured phase — the STP
// migrator and the LFS cleaner — as ordinary procs that exit once stop
// is set, so the phase ends with the file system quiescent and fsck sees
// no concurrent migration or cleaning.
type daemons struct {
	m    *migrate.Migrator
	stop bool

	// busy is the virtual time inside RunOnce calls; errs their errors.
	busy sim.Time
	errs []string
}

func newDaemons(r *rig, streams int) *daemons {
	m := migrate.NewMigrator(r.hl)
	m.Streams = streams
	return &daemons{m: m}
}

// startMigrator spawns the migrator daemon.
func (d *daemons) startMigrator(k *sim.Kernel) { k.Go("bench-migrator", d.migrator) }

// startCleaner spawns the LFS cleaner daemon with the given clean-segment
// watermarks. AttachCleaner installs the allocator's emergency cleaner;
// its daemon loop is reproduced here with a stop check.
func (d *daemons) startCleaner(k *sim.Kernel, fs *lfs.FS, low, high int) {
	fs.AttachCleaner(low, high)
	k.Go("bench-cleaner", func(p *sim.Proc) {
		for !d.stop {
			p.Sleep(time.Second)
			if fs.CleanSegs() >= low {
				continue
			}
			for fs.CleanSegs() < high {
				segs := fs.SelectCleanable(4)
				if len(segs) == 0 {
					break
				}
				if _, err := fs.CleanSegments(p, segs); err != nil {
					break
				}
			}
		}
	})
}

// migrator mirrors migrate.Migrator.Daemon with RunOnce wrapped, so the
// virtual time the migrator is busy can be measured from outside.
func (d *daemons) migrator(p *sim.Proc) {
	m := d.m
	segBytes := int64(m.HL.Amap.SegBlocks()) * lfs.BlockSize
	for !d.stop {
		p.Sleep(m.Interval)
		if d.stop || (m.Throttle != nil && m.Throttle()) {
			continue
		}
		free := m.HL.FS.CleanSegs()
		if free >= m.LowWaterSegs {
			continue
		}
		t0 := p.Now()
		_, err := m.RunOnce(p, int64(m.HighWaterSegs-free)*segBytes)
		d.busy += p.Now() - t0
		if err != nil {
			d.errs = append(d.errs, err.Error())
		}
	}
}
