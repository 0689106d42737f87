package main

import (
	"strings"

	"repro/internal/cache"
	"repro/internal/jukebox"
	"repro/internal/lfs"
	"repro/internal/obs/reqtrace"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tertiary"
)

// vmetrics are the virtual-time results of a measured phase. A seed fixes
// them exactly, so the benchmark compares them with ==.
type vmetrics struct {
	UserMBs    float64 // user MB written + read per virtual second
	WriteMBs   float64 // user MB written per virtual second, through the final sync
	MigrateMBs float64 // MB written to tertiary media per virtual second
	Goodput    float64 // reads completed within the deadline / reads attempted
	Op         tail    // the workload's foreground operation (write in ingest, read otherwise)
	Read       tail
	Write      tail
	HSM        tail // StageIn and Pin requests
}

// virtualMetrics pools the phases of one or more rounds: latencies are
// concatenated, bytes and virtual durations summed.
func virtualMetrics(phs ...*phase) vmetrics {
	var readLat, writeLat, hsmLat []sim.Time
	var dur, wdur float64
	var written, read, tert int64
	var reads, inDeadline int
	for _, ph := range phs {
		readLat = append(readLat, ph.readLat...)
		writeLat = append(writeLat, ph.writeLat...)
		hsmLat = append(hsmLat, ph.hsmLat...)
		dur += (ph.t1 - ph.t0).Seconds()
		if ph.written > 0 {
			wdur += (ph.writeEnd - ph.t0).Seconds()
		}
		written, read, tert = written+ph.written, read+ph.read, tert+ph.tertBytes
		reads, inDeadline = reads+ph.reads, inDeadline+ph.inDeadline
	}
	v := vmetrics{
		UserMBs: ratio(mb(written+read), dur), WriteMBs: ratio(mb(written), wdur),
		MigrateMBs: ratio(mb(tert), dur), Goodput: ratio(float64(inDeadline), float64(reads)),
		Read: summarize(readLat), Write: summarize(writeLat), HSM: summarize(hsmLat),
	}
	v.Op = v.Write
	if len(readLat) > 0 {
		v.Op = v.Read
	}
	return v
}

// snap is the layers' exported counters at one instant.
type snap struct {
	fs       lfs.Stats
	cache    cache.Stats
	tert     tertiary.Stats
	juke     jukebox.Stats
	fe       svc.Stats
	armBusy  sim.Time
	dev, jb  ioCounts
	hist     map[string]sim.Time // obs histogram sums
	switches int64               // kernel proc switches
}

func snapshot(r *rig) snap {
	s := snap{
		fs: r.hl.FS.Stats(), cache: r.hl.Cache.Stats(), tert: r.hl.Svc.Stats(),
		juke: r.juke.Stats(), hist: map[string]sim.Time{},
		switches: r.k.ProfileSnapshot().TotalSwitches,
	}
	if r.fe != nil {
		s.fe = r.fe.Stats()
	}
	for _, d := range r.disks {
		s.armBusy += d.ArmBusyTotal()
	}
	if r.devIO != nil {
		s.dev, s.jb = *r.devIO, *r.jukeIO
	}
	for _, h := range r.hl.Obs.Histograms() {
		s.hist[h.Name] = h.Sum
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpKinds are the critical-path stages reported as shares of request
// latency (reqtrace.stage.<kind> sums ÷ the sum over every kind).
var cpKinds = []reqtrace.Kind{
	reqtrace.KindQueueWait, reqtrace.KindCacheLookup, reqtrace.KindFetchWait,
	reqtrace.KindStripeIO, reqtrace.KindDriveSwap, reqtrace.KindMediaTransfer,
	reqtrace.KindExec,
}

// layerCounters derives the per-layer virtual-time and count metrics of
// a traced round from the counter deltas over its measured phase.
func layerCounters(r *rig, ph *phase, b, a snap, prof sim.Profile) map[string]float64 {
	m := map[string]float64{}
	hist := func(name string) sim.Time { return a.hist[name] - b.hist[name] }

	m["sim.events"] = float64(prof.Events)
	m["sim.switches"] = float64(a.switches - b.switches)
	m["sim.ns_per_event"] = ratio(float64(prof.WallNs), float64(prof.Events))
	m["sim.dispatch_ns"] = prof.AvgDispatchNs

	devInside := a.dev.Inside - b.dev.Inside
	devBusy := a.armBusy - b.armBusy
	devWritten := a.dev.BytesWritten - b.dev.BytesWritten
	m["dev.reads"] = float64(a.dev.Reads - b.dev.Reads)
	m["dev.writes"] = float64(a.dev.Writes - b.dev.Writes)
	m["dev.read_mb"] = mb(a.dev.BytesRead - b.dev.BytesRead)
	m["dev.write_mb"] = mb(devWritten)
	m["dev.busy_s"] = devBusy.Seconds()
	m["dev.wait_s"] = (devInside - devBusy).Seconds()

	m["lfs.write_amp"] = ratio(float64(a.fs.BytesWritten-b.fs.BytesWritten), float64(ph.written))
	m["lfs.partial_segs"] = float64(a.fs.PartialSegs - b.fs.PartialSegs)
	m["lfs.segs_cleaned"] = float64(a.fs.SegsCleaned - b.fs.SegsCleaned)
	m["lfs.blocks_relocated"] = float64(a.fs.BlocksRelocated - b.fs.BlocksRelocated)
	hits, misses := a.fs.CacheHits-b.fs.CacheHits, a.fs.CacheMisses-b.fs.CacheMisses
	m["lfs.buf_hit_rate"] = ratio(float64(hits), float64(hits+misses))

	ch, cm := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	m["cache.hits"] = float64(ch)
	m["cache.misses"] = float64(cm)
	m["cache.hit_rate"] = ratio(float64(ch), float64(ch+cm))
	m["cache.evicts"] = float64(a.cache.Evicts - b.cache.Evicts)

	m["tertiary.fetches"] = float64(a.tert.Fetches - b.tert.Fetches)
	m["tertiary.copyouts"] = float64(a.tert.Copyouts - b.tert.Copyouts)
	m["tertiary.fetch_wait_s"] = hist("tertiary.fetch_wait").Seconds()
	m["tertiary.retries"] = float64(a.tert.TransientRetries - b.tert.TransientRetries)

	// A changer's busy time is what its drives and picker spent on the
	// requests: swaps plus media transfer at the medium's rate. The rest
	// of the time inside the wrapped calls waited for drives and the bus.
	prf := r.juke.Profile()
	jbRead, jbWritten := a.juke.BytesRead-b.juke.BytesRead, a.juke.BytesWritten-b.juke.BytesWritten
	jbBusy := (a.juke.SwapTime - b.juke.SwapTime) +
		sim.Time(float64(jbRead)/float64(prf.MediaRead)*1e9) +
		sim.Time(float64(jbWritten)/float64(prf.MediaWrite)*1e9)
	m["jukebox.reads"] = float64(a.jb.Reads - b.jb.Reads)
	m["jukebox.writes"] = float64(a.jb.Writes - b.jb.Writes)
	m["jukebox.swaps"] = float64(a.juke.Swaps - b.juke.Swaps)
	m["jukebox.swap_s"] = (a.juke.SwapTime - b.juke.SwapTime).Seconds()
	m["jukebox.busy_s"] = jbBusy.Seconds()
	m["jukebox.wait_s"] = (a.jb.Inside - b.jb.Inside - jbBusy).Seconds()

	if ph.d != nil {
		m["migrate.runs"] = float64(ph.d.m.Runs)
		m["migrate.mb"] = mb(ph.d.m.BytesStaged)
		m["migrate.busy_s"] = ph.d.busy.Seconds()
	}

	m["svc.admitted"] = float64(a.fe.Admitted - b.fe.Admitted)
	m["svc.shed"] = float64(a.fe.Shed - b.fe.Shed)
	m["svc.expired"] = float64(a.fe.ExpiredInQueue - b.fe.ExpiredInQueue + a.fe.DeadlineMisses - b.fe.DeadlineMisses)
	m["svc.queue_wait_s"] = hist("reqtrace.stage." + reqtrace.KindQueueWait.String()).Seconds()

	m["hsm.requests"] = float64(ph.hsmReqs)
	m["hsm.failed"] = float64(ph.hsmFailed)
	m["hsm.quota_shed"] = float64(ph.hsmShed)
	m["hsm.mb_staged"] = mb(ph.hsmBytes)

	var total sim.Time
	for _, k := range reqtrace.Kinds() {
		total += hist("reqtrace.stage." + k.String())
	}
	for _, k := range cpKinds {
		name := "cp." + strings.ReplaceAll(k.String(), "-", "_") + "_pct"
		m[name] = 100 * ratio(float64(hist("reqtrace.stage."+k.String())), float64(total))
	}
	return m
}

// layerReport assembles the per-layer metrics of a traced run: counters
// averaged over the traced rounds, host CPU shares from their summed CPU
// profiles, allocation per layer per round, the tracing overhead against
// the untraced rounds, and the pooled virtual-time metrics.
func layerReport(plain, traced []*roundResult, v vmetrics) []metric {
	cpu := map[string]int64{}
	alloc := map[string]int64{}
	counters := map[string]float64{}
	var cpuTotal int64
	var gcCycles, plainHost, tracedHost []float64
	for _, r := range traced {
		for l, c := range r.cpu {
			cpu[l] += c
			cpuTotal += c
		}
		for l, b := range r.alloc {
			alloc[l] += b - r.allocBefore[l]
		}
		for k, c := range r.layers {
			counters[k] += c
		}
		gcCycles = append(gcCycles, float64(r.gcCycles))
		tracedHost = append(tracedHost, r.hostS)
	}
	for _, r := range plain {
		plainHost = append(plainHost, r.hostS)
	}
	n := float64(len(traced))
	derived := map[string]float64{
		"gc.cycles":          median(gcCycles),
		"trace_overhead_pct": 100 * (ratio(median(tracedHost), median(plainHost)) - 1),
		"hsm.stage_p50_ms":   ms(v.HSM.P50),
		"vt.write_mb_s":      v.WriteMBs,
		"vt.migrate_mb_s":    v.MigrateMBs,
		"vt.read_p50_ms":     ms(v.Read.P50),
		"vt.read_p99_ms":     ms(v.Read.P99),
		"vt.goodput":         v.Goodput,
		"vt.op_samples":      float64(v.Op.N),
		"vt.op_beyond_p99":   float64(v.Op.BeyondP99),
	}
	var out []metric
	for _, spec := range perLayer {
		val, ok := derived[spec.name]
		switch {
		case ok:
		case strings.HasSuffix(spec.name, ".cpu_pct"):
			val = 100 * ratio(float64(cpu[strings.TrimSuffix(spec.name, ".cpu_pct")]), float64(cpuTotal))
		case strings.HasSuffix(spec.name, ".alloc_mb"):
			val = mb(alloc[strings.TrimSuffix(spec.name, ".alloc_mb")]) / n
		default:
			val = counters[spec.name] / n
		}
		out = append(out, metric{spec.name, val, spec.unit})
	}
	return out
}

// perLayer is the per-layer metric list, in report order; it matches
// per_layer in BENCHMARK.json.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.switches", "count"}, {"sim.ns_per_event", "ns"}, {"sim.dispatch_ns", "ns"},
	{"dev.reads", "count"}, {"dev.writes", "count"}, {"dev.read_mb", "MB"}, {"dev.write_mb", "MB"},
	{"dev.busy_s", "s"}, {"dev.wait_s", "s"}, {"dev.cpu_pct", "%"}, {"dev.alloc_mb", "MB"},
	{"stripe.cpu_pct", "%"}, {"stripe.alloc_mb", "MB"},
	{"lfs.write_amp", "ratio"}, {"lfs.partial_segs", "count"}, {"lfs.segs_cleaned", "count"},
	{"lfs.blocks_relocated", "count"}, {"lfs.buf_hit_rate", "ratio"}, {"lfs.cpu_pct", "%"}, {"lfs.alloc_mb", "MB"},
	{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.hit_rate", "ratio"}, {"cache.evicts", "count"},
	{"core.cpu_pct", "%"}, {"core.alloc_mb", "MB"},
	{"tertiary.fetches", "count"}, {"tertiary.copyouts", "count"}, {"tertiary.fetch_wait_s", "s"},
	{"tertiary.retries", "count"}, {"tertiary.cpu_pct", "%"},
	{"jukebox.reads", "count"}, {"jukebox.writes", "count"}, {"jukebox.swaps", "count"}, {"jukebox.swap_s", "s"},
	{"jukebox.busy_s", "s"}, {"jukebox.wait_s", "s"}, {"jukebox.cpu_pct", "%"}, {"jukebox.alloc_mb", "MB"},
	{"migrate.runs", "count"}, {"migrate.mb", "MB"}, {"migrate.busy_s", "s"}, {"migrate.cpu_pct", "%"},
	{"svc.admitted", "count"}, {"svc.shed", "count"}, {"svc.expired", "count"}, {"svc.queue_wait_s", "s"}, {"svc.cpu_pct", "%"},
	{"hsm.requests", "count"}, {"hsm.failed", "count"}, {"hsm.quota_shed", "count"}, {"hsm.mb_staged", "MB"},
	{"hsm.stage_p50_ms", "ms"}, {"hsm.cpu_pct", "%"},
	{"cp.queue_wait_pct", "%"}, {"cp.cache_lookup_pct", "%"}, {"cp.fetch_wait_pct", "%"}, {"cp.stripe_io_pct", "%"},
	{"cp.drive_swap_pct", "%"}, {"cp.media_transfer_pct", "%"}, {"cp.exec_pct", "%"},
	{"obs.cpu_pct", "%"}, {"bench.cpu_pct", "%"}, {"gc.cpu_pct", "%"}, {"gc.cycles", "count"}, {"trace_overhead_pct", "%"},
	{"vt.write_mb_s", "MB/s"}, {"vt.migrate_mb_s", "MB/s"}, {"vt.read_p50_ms", "ms"}, {"vt.read_p99_ms", "ms"},
	{"vt.goodput", "ratio"}, {"vt.op_samples", "count"}, {"vt.op_beyond_p99", "count"},
}
