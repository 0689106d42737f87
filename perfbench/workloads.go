package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fsck"
	"repro/internal/hsm"
	"repro/internal/lfs"
	"repro/internal/sim"
	"repro/internal/svc"
)

// A workload builds and populates a rig (set-up), then runs a measured
// phase and a verification phase on it, all in virtual time.
type workload interface {
	measure(p *sim.Proc, ph *phase)
	verify(p *sim.Proc, ph *phase)
}

// workloads maps a workload name to its set-up. Every randomness source
// is derived from the seed, so a seed fixes every virtual-time result.
var workloads = map[string]func(seed uint64, traced bool) (*rig, workload, error){
	"ingest": newIngest,
	"recall": newRecall,
	"mixed":  newMixed,
}

// phase collects what one measured phase did.
type phase struct {
	t0, t1   sim.Time // the measured phase; t1 follows the final sync
	writeEnd sim.Time // the writer's last file, through its final sync

	written, read int64 // user bytes
	tertBytes     int64 // bytes written to tertiary media in [t0, t1]

	writeLat []sim.Time // per file: wait for space + create + write + sync
	readLat  []sim.Time // per svc read, Submit call to return
	hsmLat   []sim.Time // per StageIn/Pin, SubmitWait call to return

	reads                               int // svc reads submitted
	readsOK, shed, expired, readsFailed int
	inDeadline                          int
	hsmReqs, hsmFailed, hsmShed         int
	hsmBytes                            int64
	attempted, failed                   int
	problems                            []string
	d                                   *daemons
}

// begin and end bracket the measured phase.
func (ph *phase) begin(p *sim.Proc, r *rig) {
	ph.t0 = p.Now()
	ph.tertBytes = -r.juke.Stats().BytesWritten
}

func (ph *phase) end(p *sim.Proc, r *rig) {
	ph.t1 = p.Now()
	ph.tertBytes += r.juke.Stats().BytesWritten
}

func (ph *phase) problem(format string, args ...any) {
	if len(ph.problems) < 20 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// expGap draws a Poisson-process think time with the given mean.
func expGap(rng *sim.RNG, mean sim.Time) sim.Time {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return sim.Time(-float64(mean) * math.Log(u))
}

// ---- writer: Sequoia-like files, a seeded fraction of older ones removed

type wfile struct {
	path string
	id   uint32
	size int64
}

type writer struct {
	r       *rig
	rng     *sim.RNG
	dir     string
	nextID  uint32
	live    []wfile
	buf     []byte
	think   sim.Time // mean Poisson think time between files (0: none)
	removeP float64  // chance each new file is followed by removing an older one
	minFree int      // clean segments the writer waits for before a file
}

// writerIDs starts writer file ids above every working-set id.
const writerIDs = 1 << 20

// recentRemovals is how far back the writer reaches for a file to remove.
const recentRemovals = 16

// spaceWaitLimit bounds how long a writer waits for clean segments
// before the run is declared stuck.
const spaceWaitLimit = 30 * time.Minute

func newWriter(r *rig, seed uint64, dir string) *writer {
	return &writer{
		r: r, rng: sim.NewRNG(seed), dir: dir, nextID: writerIDs,
		buf: make([]byte, 1<<20),
	}
}

// fileSize draws a size uniformly from 64 KB to 1 MB in whole blocks.
func fileSize(rng *sim.RNG) int64 {
	return int64(16+rng.Intn(241)) * lfs.BlockSize
}

// one writes the next file (and maybe removes an older one). It returns
// false once the phase cannot go on.
func (w *writer) one(p *sim.Proc, ph *phase) bool {
	if w.think > 0 {
		p.Sleep(expGap(w.rng, w.think))
	}
	size := fileSize(w.rng)
	fs := w.r.hl.FS
	t0 := p.Now()
	for fs.CleanSegs() < w.minFree {
		if p.Now()-t0 > spaceWaitLimit {
			ph.problem("writer: no clean segments for %v", spaceWaitLimit)
			return false
		}
		p.Sleep(time.Second)
	}
	id := w.nextID
	w.nextID++
	path := fmt.Sprintf("%s/%07d", w.dir, id)
	ph.attempted++
	f, err := fs.Create(p, path)
	if err == nil {
		w.r.pat.fill(w.buf[:size], id, 0)
		_, err = f.WriteAt(p, w.buf[:size], 0)
	}
	if err == nil {
		// Each file is a checkpoint or image the writer makes durable
		// before going on.
		err = fs.Sync(p)
	}
	if err != nil {
		ph.failed++
		ph.problem("write %s: %v", path, err)
		return false
	}
	ph.writeLat = append(ph.writeLat, p.Now()-t0)
	ph.written += size
	w.live = append(w.live, wfile{path, id, size})
	// Remove one of the recentRemovals files written just before this
	// one: old enough to be flushed, young enough that the migrator's
	// STP ranking (age x size) has not selected it.
	if len(w.live) > 1 && w.rng.Float64() < w.removeP {
		i := len(w.live) - 2 - w.rng.Intn(min(recentRemovals, len(w.live)-1))
		ph.attempted++
		if err := fs.Remove(p, w.live[i].path); err != nil {
			ph.failed++
			ph.problem("remove %s: %v", w.live[i].path, err)
			return false
		}
		w.live = append(w.live[:i], w.live[i+1:]...)
	}
	return true
}

// readBack reads n seeded surviving files whole and checks their content.
func readBack(p *sim.Proc, r *rig, files []wfile, n int, rng *sim.RNG, ph *phase) {
	buf := make([]byte, 1<<20)
	for i := 0; i < n && len(files) > 0; i++ {
		f := files[rng.Intn(len(files))]
		fh, err := r.hl.FS.Open(p, f.path)
		if err != nil {
			ph.problem("read back %s: %v", f.path, err)
			continue
		}
		got, err := fh.ReadAt(p, buf[:f.size], 0)
		if err != nil || int64(got) != f.size || !r.pat.check(buf[:f.size], f.id, 0) {
			ph.problem("read back %s: %d of %d bytes, err %v, or wrong content", f.path, got, f.size, err)
		}
	}
}

// checkFS requires fsck to find zero problems.
func checkFS(p *sim.Proc, r *rig, ph *phase) {
	rep, err := fsck.Check(p, r.hl)
	if err != nil {
		ph.problem("fsck: %v", err)
		return
	}
	if !rep.OK() {
		ph.problem("fsck: %s", rep.Summary())
	}
}

// ---- ingest: the write path

// ingestFiles is the measured phase's file count (about 270 MB): the
// pooled first pass holds 4000 write latencies, 40 of them beyond p99.
const ingestFiles = 500

type ingest struct {
	r    *rig
	w    *writer
	seed uint64
}

func newIngest(seed uint64, traced bool) (*rig, workload, error) {
	r, err := newRig(rigSpec{
		Spindles: 4, SpindleSegs: 96, StripeUnit: 16,
		Vols: 32, SegsPerVol: 32, Streams: 2, CacheSegs: 32,
	}, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	w := newWriter(r, seed+1, "/seq")
	w.removeP = 0.5
	w.minFree = 8
	// Age the file system: write 40 MB of files and remove two in five,
	// leaving dead space scattered across segments.
	aging := newWriter(r, seed+2, "/aged")
	aging.removeP = 0.4
	var ph phase
	r.k.RunProc(func(p *sim.Proc) {
		if e := r.hl.FS.Mkdir(p, "/seq"); e != nil {
			err = e
			return
		}
		if e := r.hl.FS.Mkdir(p, "/aged"); e != nil {
			err = e
			return
		}
		for ph.written < 40<<20 && aging.one(p, &ph) {
		}
		err = r.hl.FS.Sync(p)
	})
	if err == nil && len(ph.problems) > 0 {
		err = errors.New(ph.problems[0])
	}
	if err != nil {
		r.k.Stop()
		return nil, nil, fmt.Errorf("ingest set-up: %w", err)
	}
	return r, &ingest{r: r, w: w, seed: seed}, nil
}

func (in *ingest) measure(p *sim.Proc, ph *phase) {
	fs := in.r.hl.FS
	ph.d = newDaemons(in.r, 2)
	// Migrate from half-full on, a run's worth of segments at a time: as
	// the clean pool shrinks, each run's target grows past what earlier
	// runs moved, so every run stages fresh data.
	ph.d.m.LowWaterSegs = in.r.hl.Amap.DiskSegs() / 2
	ph.d.m.HighWaterSegs = ph.d.m.LowWaterSegs + 16
	ph.d.startMigrator(p.Kernel())
	ph.begin(p, in.r)
	for i := 0; i < ingestFiles && in.w.one(p, ph); i++ {
	}
	if err := fs.Sync(p); err != nil {
		ph.problem("final sync: %v", err)
	}
	ph.end(p, in.r)
	ph.writeEnd = ph.t1
	ph.d.stop = true
}

func (in *ingest) verify(p *sim.Proc, ph *phase) {
	// The migrator may have finished a run after the final sync.
	if err := in.r.hl.FS.Sync(p); err != nil {
		ph.problem("sync after daemons stopped: %v", err)
	}
	readBack(p, in.r, in.w.live, 24, sim.NewRNG(in.seed+3), ph)
	checkFS(p, in.r, ph)
}

// ---- recall: the read/HSM path

const (
	wsFiles      = 80        // working-set files, migrated and ejected in set-up
	wsFileBytes  = 512 << 10 // two files per tertiary segment
	readBytes    = 64 << 10
	readDeadline = 300 * time.Second // generous: reads are measured, not shed
	readers      = 4
	readThink    = 60 * time.Second
	recallReads  = 1000 // per reader
)

type workingSet struct {
	files     []wfile
	hot, cold []int // 80% of reads go to the hot fifth of the files
}

// populate writes the working set, migrates it to tertiary storage and
// ejects every cache line, so the first touch of each segment
// demand-fetches from the changer.
func populate(p *sim.Proc, r *rig, seed uint64) (*workingSet, error) {
	hl := r.hl
	if err := hl.FS.Mkdir(p, "/ws"); err != nil {
		return nil, err
	}
	ws := &workingSet{}
	buf := make([]byte, wsFileBytes)
	var inums []uint32
	for i := 0; i < wsFiles; i++ {
		path := fmt.Sprintf("/ws/%03d", i)
		f, err := hl.FS.Create(p, path)
		if err != nil {
			return nil, err
		}
		r.pat.fill(buf, uint32(i), 0)
		if _, err := f.WriteAt(p, buf, 0); err != nil {
			return nil, err
		}
		ws.files = append(ws.files, wfile{path, uint32(i), wsFileBytes})
		inums = append(inums, f.Inum())
	}
	if err := hl.FS.Sync(p); err != nil {
		return nil, err
	}
	if _, err := hl.MigrateFiles(p, inums, false); err != nil {
		return nil, err
	}
	if err := hl.CompleteMigration(p); err != nil {
		return nil, err
	}
	for _, l := range hl.Cache.Lines() {
		if !l.Staging && l.Pins == 0 {
			if err := hl.Svc.Eject(l.Tag); err != nil {
				return nil, err
			}
		}
	}
	// The hot fifth is a run of files written together (so stored in
	// adjacent tertiary segments), starting at a seeded even offset.
	first := 2 * sim.NewRNG(seed).Intn(wsFiles/2)
	for i := 0; i < wsFiles; i++ {
		if (i-first+wsFiles)%wsFiles < wsFiles/5 {
			ws.hot = append(ws.hot, i)
		} else {
			ws.cold = append(ws.cold, i)
		}
	}
	return ws, nil
}

// pick draws a working-set file with the 80/20 popularity skew.
func (ws *workingSet) pick(rng *sim.RNG) wfile {
	if rng.Float64() < 0.8 {
		return ws.files[ws.hot[rng.Intn(len(ws.hot))]]
	}
	return ws.files[ws.cold[rng.Intn(len(ws.cold))]]
}

// reader is one closed-loop client: Poisson think time, then a 64 KB read
// at a seeded offset of a skewed-popularity file through svc, waiting for
// the reply. Every completed read's content is checked. A shed, expired
// or failed read counts as missing the deadline.
func reader(p *sim.Proc, r *rig, ws *workingSet, rng *sim.RNG, n int, think sim.Time, ph *phase) {
	buf := make([]byte, readBytes)
	for i := 0; i < n; i++ {
		p.Sleep(expGap(rng, think))
		f := ws.pick(rng)
		off := int64(rng.Intn(int(f.size/readBytes))) * readBytes
		t0 := p.Now()
		ok := false
		err := r.fe.Submit(p, svc.Interactive, t0+readDeadline, func(wp *sim.Proc) error {
			fh, err := r.hl.FS.Open(wp, f.path)
			if err != nil {
				return err
			}
			got, err := fh.ReadAt(wp, buf, off)
			if err != nil {
				return err
			}
			ok = got == len(buf) && r.pat.check(buf, f.id, off)
			return nil
		})
		lat := p.Now() - t0
		ph.attempted++
		ph.reads++
		switch {
		case err == nil:
			ph.readsOK++
			ph.read += readBytes
			if !ok {
				ph.problem("read %s@%d: wrong content", f.path, off)
			}
			if lat <= readDeadline {
				ph.inDeadline++
			}
		case errors.Is(err, svc.ErrOverload):
			ph.shed++
		case errors.Is(err, sim.ErrDeadlineExceeded), errors.Is(err, sim.ErrCanceled):
			ph.expired++
		default:
			ph.readsFailed++
			ph.problem("read %s@%d: %v", f.path, off, err)
		}
		if err != nil {
			ph.failed++
			lat = max(lat, readDeadline)
		}
		ph.readLat = append(ph.readLat, lat)
	}
}

// spawnAll runs each fn as a proc and returns a wait function that
// blocks p until all have returned.
func spawnAll(p *sim.Proc, name string, fns []func(*sim.Proc)) (wait func()) {
	k := p.Kernel()
	done := k.NewCond(name)
	left := len(fns)
	for i, fn := range fns {
		k.Go(fmt.Sprintf("%s-%d", name, i), func(cp *sim.Proc) {
			fn(cp)
			left--
			done.Broadcast()
		})
	}
	return func() {
		for left > 0 {
			done.Wait(p)
		}
	}
}

// readerProcs builds the reader clients' bodies.
func readerProcs(r *rig, ws *workingSet, seed uint64, n int, think sim.Time, ph *phase) []func(*sim.Proc) {
	var fns []func(*sim.Proc)
	for c := 0; c < readers; c++ {
		rng := sim.NewRNG(seed + uint64(c)*0x9e3779b97f4a7c15 + 11)
		fns = append(fns, func(p *sim.Proc) { reader(p, r, ws, rng, n, think, ph) })
	}
	return fns
}

// checkSvc requires the front end's accounting identity: every admitted
// request finished, completed or failed, and the clients' own outcome
// counts add up to what they submitted.
func checkSvc(r *rig, ph *phase, exact bool) {
	st := r.fe.Stats()
	if st.Admitted != st.Completed+st.Failed {
		ph.problem("svc: admitted %d != completed %d + failed %d", st.Admitted, st.Completed, st.Failed)
	}
	if ph.reads != ph.readsOK+ph.shed+ph.expired+ph.readsFailed {
		ph.problem("svc: submitted %d != completed %d + shed %d + expired %d + failed %d",
			ph.reads, ph.readsOK, ph.shed, ph.expired, ph.readsFailed)
	}
	// Without other svc traffic the front end's counters must match the
	// readers' exactly.
	if exact && (st.Admitted+st.Shed != int64(ph.reads) || st.Completed != int64(ph.readsOK)) {
		ph.problem("svc: front end saw %d submitted / %d completed, readers %d / %d",
			st.Admitted+st.Shed, st.Completed, ph.reads, ph.readsOK)
	}
}

type recall struct {
	r    *rig
	ws   *workingSet
	seed uint64
}

func newRecall(seed uint64, traced bool) (*rig, workload, error) {
	r, err := newRig(rigSpec{
		Spindles: 1, SpindleSegs: 128, SharedBus: true,
		Vols: 10, SegsPerVol: 8, CacheSegs: 16,
	}, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	var ws *workingSet
	r.k.RunProc(func(p *sim.Proc) { ws, err = populate(p, r, seed) })
	if err != nil {
		r.k.Stop()
		return nil, nil, fmt.Errorf("recall set-up: %w", err)
	}
	r.fe = svc.New(r.hl, svc.Config{})
	return r, &recall{r: r, ws: ws, seed: seed}, nil
}

func (rc *recall) measure(p *sim.Proc, ph *phase) {
	ph.begin(p, rc.r)
	spawnAll(p, "reader", readerProcs(rc.r, rc.ws, rc.seed, recallReads, readThink, ph))()
	ph.end(p, rc.r)
}

func (rc *recall) verify(p *sim.Proc, ph *phase) {
	checkSvc(rc.r, ph, true)
	checkFS(p, rc.r, ph)
}

// ---- mixed: writes beside reads on one arm, bus, changer and front end

const (
	mixedReads      = 400 // per reader
	mixedFiles      = 160
	mixedReadThink  = 120 * time.Second
	mixedWriteThink = 480 * time.Second
	hsmRequests     = 40 // per principal
	hsmThink        = 960 * time.Second
)

type mixed struct {
	r    *rig
	ws   *workingSet
	w    *writer
	hs   *hsm.Service
	seed uint64
}

func newMixed(seed uint64, traced bool) (*rig, workload, error) {
	r, err := newRig(rigSpec{
		Spindles: 1, SpindleSegs: 112, SharedBus: true,
		Vols: 16, SegsPerVol: 8, CacheSegs: 16,
	}, seed, traced)
	if err != nil {
		return nil, nil, err
	}
	mx := &mixed{r: r, seed: seed}
	r.k.RunProc(func(p *sim.Proc) {
		if mx.ws, err = populate(p, r, seed); err != nil {
			return
		}
		if err = r.hl.FS.Mkdir(p, "/new"); err != nil {
			return
		}
		r.fe = svc.New(r.hl, svc.Config{})
		mx.hs, err = hsm.Attach(p, r.hl, hsm.Config{FrontEnd: r.fe})
	})
	if err != nil {
		r.k.Stop()
		return nil, nil, fmt.Errorf("mixed set-up: %w", err)
	}
	mx.w = newWriter(r, seed+1, "/new")
	mx.w.think = mixedWriteThink
	mx.w.removeP = 0.3
	mx.w.minFree = 4
	return r, mx, nil
}

func (mx *mixed) measure(p *sim.Proc, ph *phase) {
	r := mx.r
	ph.d = newDaemons(r, 1)
	// The phase spans hours of virtual time; poll like a periodic
	// background job rather than every five seconds.
	ph.d.m.Interval = time.Minute
	r.fe.AttachMigrator(ph.d.m)
	ph.d.startMigrator(p.Kernel())
	ph.d.startCleaner(p.Kernel(), r.hl.FS, 10, 14)
	ph.begin(p, r)
	fns := readerProcs(r, mx.ws, mx.seed, mixedReads, mixedReadThink, ph)
	fns = append(fns, func(wp *sim.Proc) {
		for i := 0; i < mixedFiles && mx.w.one(wp, ph); i++ {
		}
		if err := r.hl.FS.Sync(wp); err != nil {
			ph.problem("writer sync: %v", err)
		}
		ph.writeEnd = wp.Now()
	})
	// Two principals, each with half the working set, issuing StageIn and
	// every fourth request a Pin (at most two live pins each).
	half := len(mx.ws.files) / 2
	for i, name := range []string{"astro", "climate"} {
		paths := mx.ws.files[i*half : (i+1)*half]
		rng := sim.NewRNG(mx.seed + uint64(i)*7919 + 5)
		fns = append(fns, func(pp *sim.Proc) { principal(pp, mx.hs, name, paths, rng, ph) })
	}
	spawnAll(p, "mixed", fns)()
	if err := r.hl.FS.Sync(p); err != nil {
		ph.problem("final sync: %v", err)
	}
	ph.end(p, r)
	ph.d.stop = true
}

func (mx *mixed) verify(p *sim.Proc, ph *phase) {
	if err := mx.r.hl.FS.Sync(p); err != nil {
		ph.problem("sync after daemons stopped: %v", err)
	}
	readBack(p, mx.r, mx.w.live, 16, sim.NewRNG(mx.seed+3), ph)
	checkSvc(mx.r, ph, false)
	checkFS(p, mx.r, ph)
}

// principal is one closed-loop HSM user: it waits for each request before
// issuing the next. Latency is timed around SubmitWait.
func principal(p *sim.Proc, hs *hsm.Service, name string, files []wfile, rng *sim.RNG, ph *phase) {
	var pinned []string
	submit := func(op hsm.Op, path string) error {
		t0 := p.Now()
		req, err := hs.SubmitWait(p, op, path, name)
		ph.attempted++
		ph.hsmReqs++
		if op == hsm.OpStageIn || op == hsm.OpPin {
			ph.hsmLat = append(ph.hsmLat, p.Now()-t0)
		}
		switch {
		case err == nil:
			ph.hsmBytes += req.Bytes
		case errors.Is(err, hsm.ErrQuotaExceeded):
			ph.failed++
			ph.hsmShed++
		default:
			ph.failed++
			ph.hsmFailed++
		}
		return err
	}
	for i := 0; i < hsmRequests; i++ {
		p.Sleep(expGap(rng, hsmThink))
		path := files[rng.Intn(len(files))].path
		op := hsm.OpStageIn
		if (i+1)%4 == 0 && !contains(pinned, path) {
			op = hsm.OpPin
		}
		if submit(op, path) == nil && op == hsm.OpPin {
			pinned = append(pinned, path)
		}
		for len(pinned) > 2 {
			submit(hsm.OpUnpin, pinned[0])
			pinned = pinned[1:]
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
