// Command perfbench is the repository benchmark: it measures how fast and
// how frugally the Go program computes HighLight's behaviour (host time,
// allocation, live heap) and what the simulated system delivers (virtual
// throughput and latency), on three workloads:
//
//	ingest  the write path: synced files on an aged LFS, 4-spindle farm, STP migrator
//	recall  the read path: skewed 64 KB reads through svc over migrated data
//	mixed   both at once, plus the LFS cleaner and HSM stage-in/pin principals
//
// Usage:
//
//	perfbench --workload ingest|recall|mixed --seed N --seconds S --trace 0|1
//
// A run derives eight input sets from --seed and repeats set-up plus
// measured phase ("rounds") over them, whole passes at a time, until the
// measured phases add up to --seconds of wall time. Host metrics (CPU
// seconds, allocation, heap) are medians over rounds; virtual-time metrics
// pool the first pass. --trace 0 prints the end-to-end metrics; --trace 1
// follows each untraced round with a traced one on the same input and
// prints the per-layer metrics. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. Every
// completed read, a sample of the written files, fsck, the svc accounting
// identity and the determinism of every virtual-time metric are checked;
// a run failing any check prints correct=false without metrics and exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/sim"
)

const (
	// subSeeds is how many input sets a run derives from its seed. Each
	// round runs one of them; a pass runs each once. Virtual-time metrics
	// pool the samples of the first pass, so they rest on several
	// independent inputs rather than one.
	subSeeds = 8
	// budget bounds a run's wall time: no round starts that would likely
	// end past it.
	budget = 140 * time.Second
)

// subSeed derives the i-th input seed of a run.
func subSeed(seed uint64, i int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: ingest, recall or mixed")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "wall seconds of measured phases per run")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest|recall|mixed and --trace 0|1\n")
		return 2
	}
	traceRun := *trace == 1
	if traceRun {
		// Sample allocations finely enough to split them by layer.
		runtime.MemProfileRate = 64 << 10
	}

	// Rounds cycle through the sub-seeds; a traced run follows each
	// untraced round with a traced one on the same input. The run ends
	// after whole passes once the measured phases reach --seconds.
	start := time.Now()
	var plain, traced []*roundResult
	var problems []string
	var measured float64
	for {
		tr := traceRun && len(traced) < len(plain)
		idx := len(plain)
		if tr {
			idx = len(traced)
		}
		t0 := time.Now()
		res, err := runRound(build, subSeed(*seed, idx%subSeeds), tr)
		if err != nil {
			problems = append(problems, err.Error())
			break
		}
		if tr {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		measured += res.wallS
		if problems = append(problems, res.problems...); len(problems) > 0 {
			break
		}
		passDone := len(plain)%subSeeds == 0 && (!traceRun || len(traced) == len(plain))
		if passDone && (measured >= *seconds || time.Since(start)+2*time.Since(t0)*subSeeds > budget) {
			break
		}
	}
	if len(problems) == 0 {
		problems = consistency(plain, traced)
	}

	attempted, failed := 0, 0
	for _, r := range append(plain[:len(plain):len(plain)], traced...) {
		attempted += r.ph.attempted
		failed += r.ph.failed
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d sub_seeds=%d rounds=%d traced_rounds=%d gomaxprocs=%d nproc=%d go=%s\n",
		*name, *seed, subSeeds, len(plain), len(traced), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var v vmetrics
	if len(problems) == 0 {
		var phs []*phase
		for _, r := range plain[:subSeeds] {
			phs = append(phs, r.ph)
		}
		v = virtualMetrics(phs...)
		fmt.Fprintf(stdout, "# pooled samples: op=%d beyond_p99=%d under_1s=%d reads=%d writes=%d hsm=%d\n",
			v.Op.N, v.Op.BeyondP99, v.Op.UnderOneS, v.Read.N, v.Write.N, v.HSM.N)
		if v.Op.BeyondP99 < 10 {
			problems = append(problems, fmt.Sprintf("only %d of %d latency samples lie beyond p99", v.Op.BeyondP99, v.Op.N))
		}
	}
	res := result{Correct: len(problems) == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if res.Correct {
		var ms []metric
		if traceRun {
			ms = layerReport(plain, traced, v)
		} else {
			ms = endToEnd(plain, v)
		}
		for _, m := range ms {
			fmt.Fprintf(stdout, "%-26s %14.4f %s\n", m.name, m.Value, m.Unit)
			res.Metrics[m.name] = m
		}
	} else {
		for _, p := range problems {
			fmt.Fprintf(stderr, "perfbench: FAIL: %s\n", p)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundResult is one set-up plus measured phase.
type roundResult struct {
	setupS, hostS float64 // host CPU seconds, all threads
	wallS         float64 // wall-clock seconds of the measured phase
	allocBytes    uint64  // Go heap allocated during the measured phase
	heapBytes     uint64  // live heap after the phase, rig still live
	gcCycles      uint32
	ph            *phase
	v             vmetrics
	problems      []string

	// Traced rounds only.
	layers                  map[string]float64
	cpu, allocBefore, alloc map[string]int64
}

func runRound(build func(uint64, bool) (*rig, workload, error), seed uint64, traced bool) (res *roundResult, err error) {
	ph := &phase{}
	defer func() {
		// The kernel re-raises a proc's panic; report it as a failed run,
		// with whatever the phase had already found wrong.
		if e := recover(); e != nil {
			err = fmt.Errorf("panic: %v (earlier problems: %q)", e, ph.problems)
		}
	}()
	runtime.GC()
	c0 := cpuSeconds()
	r, w, err := build(seed, traced)
	if err != nil {
		return nil, err
	}
	defer r.k.Stop()
	res = &roundResult{setupS: cpuSeconds() - c0, ph: ph}

	before := snapshot(r)
	var cpuBuf bytes.Buffer
	if traced {
		if res.allocBefore, err = allocProfile(); err != nil {
			return nil, err
		}
		r.k.EnableProfile()
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1, c1 := time.Now(), cpuSeconds()
	r.k.RunProc(func(p *sim.Proc) { w.measure(p, ph) })
	res.hostS, res.wallS = cpuSeconds()-c1, time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	after := snapshot(r)
	simProf := r.k.ProfileSnapshot()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapBytes = m1.HeapAlloc
	if traced {
		if res.alloc, err = allocProfile(); err != nil {
			return nil, err
		}
		if res.cpu, err = attribute(cpuBuf.Bytes(), "cpu"); err != nil {
			return nil, err
		}
	}

	r.k.RunProc(func(p *sim.Proc) { w.verify(p, ph) })
	res.v = virtualMetrics(ph)
	res.problems = append(res.problems, ph.problems...)
	if ph.d != nil {
		for _, e := range ph.d.errs {
			res.problems = append(res.problems, "migrator: "+e)
		}
	}
	if traced {
		res.layers = layerCounters(r, ph, before, after, simProf)
	}
	ph.d = nil // the round result must not keep the rig alive
	return res, nil
}

// cpuSeconds is the process's user plus system CPU time. Host time is
// measured in CPU time rather than wall time: on a shared virtual machine
// the hypervisor steals CPU from the guest unpredictably, and stolen time
// inflates wall time but is not charged to the process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocProfile attributes the cumulative allocation profile by layer.
func allocProfile() (map[string]int64, error) {
	runtime.GC() // the profile reflects allocations up to the last GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return attribute(buf.Bytes(), "alloc_space")
}

// consistency requires every virtual-time metric of a round to repeat
// exactly in every other round on the same sub-seed, traced or not: the
// seed fixes them, and tracing must not perturb them.
func consistency(plain, traced []*roundResult) []string {
	var out []string
	check := func(kind string, rs []*roundResult) {
		for i, r := range rs {
			if first := plain[i%subSeeds]; r.v != first.v {
				out = append(out, fmt.Sprintf("virtual-time metrics of %s round %d differ from round %d on the same input: %+v vs %+v",
					kind, i, i%subSeeds, r.v, first.v))
			}
		}
	}
	check("untraced", plain)
	check("traced", traced)
	return out
}

// endToEnd reports the end-to-end metrics: host time, allocation per
// user byte, set-up time and live heap as medians over the rounds, and
// the virtual-time metrics of the pooled first pass.
func endToEnd(rs []*roundResult, v vmetrics) []metric {
	var setup, heap, host, alloc []float64
	for _, r := range rs {
		setup = append(setup, r.setupS)
		heap = append(heap, mb(int64(r.heapBytes)))
		host = append(host, r.hostS)
		alloc = append(alloc, mb(int64(r.allocBytes))/mb(r.ph.written+r.ph.read))
	}
	return []metric{
		{"setup_s", median(setup), "s"},
		{"host_s", median(host), "s"},
		{"alloc_mb_per_mb", median(alloc), "MB/MB"},
		{"heap_mb", median(heap), "MB"},
		{"user_mb_s", v.UserMBs, "MB/s"},
		{"op_p50_ms", ms(v.Op.P50), "ms"},
		{"op_p99_ms", ms(v.Op.P99), "ms"},
	}
}
