// Command perfbench is the serving benchmark: it deploys the MVTEE serving
// stack in process from the public API, the way mvtee-serve does, drives one
// workload from a seeded generator, checks every output against the
// unpartitioned model, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics and the latency budget). The last line
// of standard output is the machine-readable result.
//
//	bash perfbench/run.sh --workload closed-mixed --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:])) }

// errOverCapacity marks an open-loop run whose backlog grew: its figures
// describe a queue that never settled, so no result is printed.
var errOverCapacity = errors.New("over capacity")

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name from BENCHMARK.json, or 'all' to run each in turn")
	seed := fs.Uint64("seed", 1, "workload seed: input pool, schedule and request picks derive from it")
	secs := fs.Float64("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build/results", "directory for run records, span dumps and goroutine dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The result is checked against the benchmark definition at the
	// checkout root, the directory the benchmark runs from.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	p, err := loadParams()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	for _, w := range spec.Workloads {
		if _, ok := p.Workloads[w.Name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s has no parameters in params.json\n", w.Name)
			return 2
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = allWorkloads(spec, p)
	} else if _, ok := p.Workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	// Load comes from this process: never more Ps than the host has CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))
	// The daemon sizes the span ring before anything records into it.
	telemetry.DefaultTracer = telemetry.NewTracer(p.System.TraceRing)

	code := 0
	for _, name := range names {
		cfg := runConfig{p: p, spec: spec, workload: name, seed: *seed, secs: *secs, traced: *traceFlag == 1, outDir: *outDir}
		res, err := cfg.execute()
		if err != nil {
			fmt.Printf("perfbench: %s: %v\n", name, err)
			return 1
		}
		line, _ := json.Marshal(res.line())
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// allWorkloads lists the gated workloads in BENCHMARK.json order, then the
// ungated ones params.json adds (sorted).
func allWorkloads(spec *benchSpec, p Params) []string {
	var names, extra []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range p.Workloads {
		if !spec.hasWorkload(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

type runConfig struct {
	p        Params
	spec     *benchSpec
	workload string
	seed     uint64
	secs     float64
	traced   bool
	outDir   string
}

// result is one run's outcome; line() is the contract's last-line subset.
type result struct {
	Meta      map[string]any       `json:"meta"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  map[string]int       `json:"failures"`
	Metrics   map[string]metricVal `json:"metrics"`
	NA        []string             `json:"not_applicable,omitempty"`
	Findings  []string             `json:"findings,omitempty"`
}

func (r *result) line() any {
	type lineVal struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]lineVal, len(r.Metrics))
	for k, v := range r.Metrics {
		m[k] = lineVal{Value: v.Value, Unit: v.Unit}
	}
	return struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]lineVal `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

// base is the path prefix of this run's output files.
func (c runConfig) base() string {
	trace := 0
	if c.traced {
		trace = 1
	}
	return filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, trace))
}

func (c runConfig) newPhase(pool *inputPool, length time.Duration) *phase {
	ph := &phase{
		p: c.p, wp: c.p.Workloads[c.workload], seed: c.seed, pool: pool,
		crit:   criterion(c.p.System),
		warmup: seconds(c.p.Harness.WarmupS), length: length,
		cuts: 1,
	}
	ph.onLost = func() {
		path := c.base() + "-goroutines.txt"
		if f, err := os.Create(path); err == nil {
			_ = pprof.Lookup("goroutine").WriteTo(f, 2)
			_ = f.Close()
			fmt.Printf("perfbench: a request missed its deadline; goroutine dump in %s\n", path)
		}
	}
	return ph
}

// drive runs the workload's load shape against the stack.
func (c runConfig) drive(ph *phase, st *stack, tr *tracer) window {
	wp := c.p.Workloads[c.workload]
	if wp.openLoop() {
		return ph.runOpen(st.srv, wp.Tenants)
	}
	var wrap func(http.RoundTripper) http.RoundTripper
	if tr != nil {
		wrap = func(rt http.RoundTripper) http.RoundTripper { return taggingTransport{base: rt} }
	}
	clients := newHTTPClients(st.baseURL, wp.Protocols, wrap)
	defer closeHTTPClients(clients)
	return ph.runClosed(clients, wp.Tenants)
}

func (c runConfig) execute() (*result, error) {
	pool, err := buildPool(c.p, c.seed)
	if err != nil {
		return nil, err
	}
	var res *result
	if c.traced {
		res, err = c.tracedRun(pool)
	} else {
		res, err = c.timedRun(pool)
	}
	if res != nil {
		c.writeRecord(res)
		c.print(res)
	}
	if err != nil {
		return nil, err
	}
	declared := c.spec.EndToEnd
	if c.traced {
		declared = c.spec.PerLayer
	}
	if err := checkEmitted(declared, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}

// timedRun measures the end-to-end metrics with nothing wrapped.
func (c runConfig) timedRun(pool *inputPool) (*result, error) {
	wp := c.p.Workloads[c.workload]
	var setups []float64
	var st *stack
	for i := 0; i < c.p.Harness.SetupReps; i++ {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = buildStack(c.p, wp, stackHooks{}); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()

	ph := c.newPhase(pool, seconds(c.secs))
	// Throughput, median latency and CPU are medians over equal
	// sub-windows, so a transient stall of the shared host moves one
	// sub-window rather than the run's figure. p99 needs every sample.
	k := c.p.Harness.SubWindows
	ph.cuts = k
	cpu := make([]time.Duration, k+1)
	ph.onEdge = func(i int) { cpu[i] = cpuTime() }
	// Peak RSS covers serving only: set-up repetitions and the oracle are
	// collected and the high-water mark is reset before the window opens.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	w := c.drive(ph, st, nil)

	res := c.newResult(ph)
	lat, ok := latencies(ph.samples)
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return res, fmt.Errorf("latency: %w", err)
	}
	var tput, p50s, cpuPer []float64
	for i := 0; i < k; i++ {
		sw := w.sub(i, k)
		var sub []*sample
		for _, s := range ph.samples {
			if sw.contains(s.due) {
				sub = append(sub, s)
			}
		}
		subLat, subOK := latencies(sub)
		p50, err := percentile(subLat, 0.5)
		if err != nil {
			return res, fmt.Errorf("latency in sub-window %d: %w", i, err)
		}
		p50s = append(p50s, p50)
		tput = append(tput, float64(subOK)/sw.t1.Sub(sw.t0).Seconds())
		cpuPer = append(cpuPer, ratio(ms(cpu[i+1]-cpu[i]), float64(subOK)))
	}
	throughput := median(tput)
	if c.p.Workloads[c.workload].openLoop() {
		// The open loop's load is its schedule: count the whole window, as
		// a sub-window's Poisson count varies more than the run's.
		throughput = float64(ok) / w.t1.Sub(w.t0).Seconds()
	}
	res.Metrics = map[string]metricVal{
		"throughput_rps": {Value: throughput, Unit: "req/s", N: ok},
		"latency_p50_ms": {Value: median(p50s), Unit: "ms", N: len(lat)},
		"latency_p99_ms": {Value: p99, Unit: "ms", N: len(lat)},
		"success_frac":   {Value: ratio(float64(ok), float64(res.Attempted)), Unit: "ratio", N: res.Attempted},
		"cpu_ms_per_req": {Value: median(cpuPer), Unit: "ms", N: ok},
		"peak_rss_mb":    {Value: peakRSSMiB(), Unit: "MiB"},
		"setup_s":        {Value: median(setups), Unit: "s", N: len(setups)},
	}
	res.Meta["sub_window_throughput_rps"] = tput
	res.Meta["sub_window_latency_p50_ms"] = p50s
	res.Meta["sub_window_cpu_ms_per_req"] = cpuPer
	return res, c.openLoopCheck(ph, res)
}

// openLoopCheck refuses an open-loop run whose backlog grew.
func (c runConfig) openLoopCheck(ph *phase, res *result) error {
	wp := c.p.Workloads[c.workload]
	if !wp.openLoop() {
		return nil
	}
	grew, first, last := overCapacity(ph.backlog, float64(2*c.p.System.MaxBatch))
	res.Meta["backlog_first_quarter_mean"] = first
	res.Meta["backlog_last_quarter_mean"] = last
	res.Meta["backlog_end"] = ph.backlogAt
	res.Meta["generator_late_p99_ms"] = lateness(ph.lateMS)
	if grew {
		return fmt.Errorf("%w at %g req/s: in-flight requests grew from %.1f to %.1f across the window", errOverCapacity, wp.RateRPS, first, last)
	}
	return nil
}

// latencies returns the ok samples' latencies (from due time) in ms.
func latencies(samples []*sample) ([]float64, int) {
	var lat []float64
	for _, s := range samples {
		if s.ok() {
			lat = append(lat, ms(s.end.Sub(s.due)))
		}
	}
	return lat, len(lat)
}

// newResult fills the counts shared by both run kinds.
func (c runConfig) newResult(ph *phase) *result {
	res := &result{Meta: c.meta(), Correct: ph.wrong.Load() == 0, Failures: map[string]int{}}
	for _, s := range ph.samples {
		res.Attempted++
		switch {
		case s.wrong != nil:
			res.Failures["wrong_output"]++
			if len(res.Findings) < 5 {
				res.Findings = append(res.Findings, "wrong output: "+s.wrong.Error())
			}
		case s.missed:
			res.Failures["deadline"]++
		case s.err != nil:
			res.Failures[errKind(s.err)]++
			if len(res.Findings) < 5 {
				res.Findings = append(res.Findings, "error: "+s.err.Error())
			}
		default:
			continue
		}
		res.Failed++
	}
	if n := ph.wrong.Load(); n > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%d wrong outputs in total (warm-up included)", n))
	}
	return res
}

func errKind(err error) string {
	var se *serve.StatusError
	if errors.As(err, &se) {
		return "http_" + strconv.Itoa(se.Status)
	}
	return "error"
}

func (c runConfig) meta() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.secs,
		"traced":     c.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gated":      c.spec.hasWorkload(c.workload),
		"go":         runtime.Version(),
		"revision":   rev,
		"system":     c.p.System,
		"harness":    c.p.Harness,
		"params":     c.p.Workloads[c.workload],
	}
}

func (c runConfig) writeRecord(res *result) {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(c.base()+".json", raw, 0o644)
	}
	if err != nil {
		fmt.Println("perfbench: writing run record:", err)
	}
}

// print writes the human-readable table: every metric with its unit and
// sample count.
func (c runConfig) print(res *result) {
	gate := ""
	if !c.spec.hasWorkload(c.workload) {
		gate = "  [not gated by BENCHMARK.json]"
	}
	fmt.Printf("== %s  seed %d  %gs  trace %v  (nproc %d, GOMAXPROCS %d, %s, rev %v)%s\n",
		c.workload, c.seed, c.secs, c.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), res.Meta["revision"], gate)
	na := map[string]bool{}
	for _, n := range res.NA {
		na[n] = true
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		if na[n] {
			fmt.Printf("  %-36s %14s %-6s\n", n, "n/a", v.Unit)
			continue
		}
		count := ""
		if v.N > 0 {
			count = "n=" + strconv.Itoa(v.N)
		}
		fmt.Printf("  %-36s %14.4f %-6s %s\n", n, v.Value, v.Unit, count)
	}
	fmt.Printf("  %-36s %14.4f %-6s n=%d %v\n", "failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted, res.Failures)
	fmt.Printf("  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Findings {
		fmt.Println("  finding:", f)
	}
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the process's resident-set high-water mark (VmHWM)
// to its current resident set; see proc(5), /proc/pid/clear_refs.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Println("perfbench: cannot reset peak RSS; peak_rss_mb includes set-up:", err)
	}
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
