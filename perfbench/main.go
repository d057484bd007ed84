// Command perfbench is the repository benchmark: it starts an in-process
// eight-server staging fleet on loopback TCP, drives one workload
// closed-loop from two clients, checks every read byte for byte, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ones)
// with a JSON result as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// deadline bounds a whole run, set-up and calibration included.
	deadline = 160 * time.Second
	// setups is how many fresh fleets a run sets up; setup_s is the median
	// of their set-up times, and the last fleet is measured.
	setups = 5
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "s3d-step, small-churn, fail-recover or s3d-spill")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: payloads, op order and victim order")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for spans, results and the disk tier")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the environment block")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v (workload %s, seed %d)\n", deadline, o.workload, o.seed)
		os.Exit(3)
	})
	defer timer.Stop()
	os.Exit(run1(o))
}

// result is everything one run measured.
type result struct {
	Env       map[string]any     `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Wrong     int64              `json:"wrong_reads"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func run1(o options) int {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	tal := &tally{}
	env := environment(o, w)

	// Set up fresh fleets; keep the last one for the window.
	var setupTimes []float64
	var r *run
	for i := 0; i < setups; i++ {
		w, _ = newWorkload(o.workload, o.seed)
		t0 := time.Now()
		f, err := startFleet(o.workdir, w.spill())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		ri := newRun(o.seed, f, tal)
		err = w.setup(ri)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			f.close()
			fmt.Fprintf(os.Stderr, "perfbench: set-up failed (workload %s, seed %d): %v %v\n", o.workload, o.seed, err, tal.messages)
			return 1
		}
		if i < setups-1 {
			f.close()
		} else {
			r = ri
		}
	}

	// The measured window.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r.tr = tr
	r.win = &series{}
	r.demoted, r.promoted = 0, 0
	r.m = newMeter(r.f.c)
	var need []func() int
	for _, p := range w.required(r.win) {
		need = append(need, func() int { return r.win.count(p) })
	}
	proc0 := readProc()
	r.m.start(segHealthy)
	win := newWindow(o.seconds, need...)
	w.measure(r, win)
	elapsed := time.Since(win.start)
	r.m.stop()
	proc1 := readProc()
	lat := r.win
	r.win, r.tr = nil, nil
	g := r.f.gauges()
	heap := liveHeapMiB()
	w.readBack(r)
	r.f.close()

	var cal calibration
	if o.trace {
		if cal, err = calibrate(o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: calibration:", err)
			return 1
		}
	}

	res := &result{
		Env:       env,
		Attempted: tal.attempted.Load(),
		Failed:    tal.failed.Load(),
		Wrong:     tal.wrong.Load(),
		Failures:  tal.messages,
		Samples:   map[string]int{},
	}
	res.Correct = res.Failed == 0
	m := measurement{
		o: o, w: w, r: r, lat: lat, elapsed: elapsed, setupTimes: setupTimes,
		gauges: g, heapMiB: heap, proc: [2]procSample{proc0, proc1}, cal: cal,
	}
	if o.trace {
		spans := tr.snapshot()
		m.spans = summarize(spans, selfTimes(spans))
		m.spanCount = len(spans)
		dir := filepath.Join(o.workdir, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if os.MkdirAll(dir, 0o755) == nil && tr.write(path) == nil {
			res.SpanFile = path
		}
	}
	res.Metrics, err = m.all(res.Samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(os.Stdout, o, res, m)
	saveResult(o, res)

	// The last line: the contract's result object.
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]map[string]any{}}
	for _, d := range names {
		out.Metrics[d.name] = map[string]any{"value": res.Metrics[d.name], "unit": d.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// environment is the block recorded with every result.
func environment(o options, w workload) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     o.commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"setups":     setups,
		"fleet": map[string]any{
			"servers": fleetServers, "code": "RS(3+1)", "nlevel": 1, "S": 0.67,
			"transport": "tcp", "mux_conns_per_peer": muxConns, "membership": "static",
		},
		"params": w.params(),
	}
}
