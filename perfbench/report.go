package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports in its result line;
// BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"get_p50_ms", "ms"},
	{"stored_bytes_per_user_byte", "B/B"},
	{"heap_mb", "MiB"},
}

// reportMetrics are end-to-end metrics printed in the report but kept out
// of the result line: the ones that exist on some workloads only, and the
// Get p99, which neighbour load on a shared host moves by more than any
// bound the result line allows. The traced run carries the timings as
// client, step and recovery metrics.
var reportMetrics = []metricDef{
	{"get_p99_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p99_ms", "ms"},
	{"step_p50_ms", "ms"},
	{"degraded_get_p50_ms", "ms"},
	{"degraded_get_p99_ms", "ms"},
	{"recover_p50_ms", "ms"},
	{"failed_op_ratio", "ratio"},
}

// perLayer are the metrics every traced run reports in its result line. A
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"client.gets", "count"},
	{"client.puts", "count"},
	{"client.degraded_gets", "count"},
	{"client.get_p99_ms", "ms"},
	{"client.get_self_ms", "ms"},
	{"client.put_self_ms", "ms"},
	{"client.put_p50_ms", "ms"},
	{"client.put_p99_ms", "ms"},
	{"client.degraded_get_p50_ms", "ms"},
	{"client.degraded_get_p99_ms", "ms"},
	{"client.metadata_ms_per_get", "ms"},
	{"client.retries_per_op", "1/op"},
	{"client.faults_per_op", "1/op"},
	{"client.failovers", "count"},
	{"step.count", "count"},
	{"step.p50_ms", "ms"},
	{"step.self_ms", "ms"},
	{"server.end_step_ms", "ms"},
	{"server.encodes", "count"},
	{"server.encodes_per_step", "1/step"},
	{"server.encode_ms_per_step", "ms"},
	{"server.classify_ms_per_step", "ms"},
	{"server.transport_ms_per_put", "ms"},
	{"server.demotions_per_step", "1/step"},
	{"server.promotions_per_step", "1/step"},
	{"server.encoded_objects", "count"},
	{"server.dir_entries", "count"},
	{"erasure.encode_mb_per_s", "MB/s"},
	{"erasure.reconstruct_mb_per_s", "MB/s"},
	{"erasure.decode_ms_per_degraded_get", "ms"},
	{"erasure.decode_cache_hit_ratio", "ratio"},
	{"erasure.decode_cache_lookups", "count"},
	{"transport.rtt_us_1k", "us"},
	{"transport.rtt_us_256k", "us"},
	{"transport.pool_hit_ratio", "ratio"},
	{"transport.pool_gets", "count"},
	{"transport.mux_redials", "count"},
	{"storage.spills_per_step", "1/step"},
	{"storage.cold_reads_per_get", "1/op"},
	{"storage.compactions", "count"},
	{"storage.backpressure_stalls", "count"},
	{"recovery.cycles", "count"},
	{"recovery.replace_ms", "ms"},
	{"recovery.recover_ms", "ms"},
	{"recovery.cycle_p50_ms", "ms"},
	{"recovery.objects_repaired", "count"},
	{"proc.ops", "count"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.allocs_per_op", "1/op"},
	{"proc.alloc_kb_per_op", "KiB"},
	{"proc.gc_count", "count"},
	{"trace.spans", "count"},
	{"trace.span_cost_ns", "ns"},
	{"trace.ops_per_s", "op/s"},
	{"trace.get_p50_ms", "ms"},
}

// measurement is the raw material of one run's metrics.
type measurement struct {
	o          options
	w          workload
	r          *run
	lat        *series
	elapsed    time.Duration
	setupTimes []float64
	gauges     fleetGauges
	heapMiB    float64
	proc       [2]procSample
	cal        calibration
	spans      map[string]*spanStats
	spanCount  int
}

// all computes every metric by name and records the sample count behind
// each timing in counts.
func (m *measurement) all(counts map[string]int) (map[string]float64, error) {
	v := map[string]float64{}
	lat, r := m.lat, m.r
	required := map[*samples]bool{}
	for _, p := range m.w.required(lat) {
		required[p] = true
	}
	var err error
	pct := func(name string, s *samples, q float64) float64 {
		counts[name] = len(*s)
		d, ok := s.quantile(q)
		if !ok && required[s] && err == nil {
			err = fmt.Errorf("%s has %d samples, too few for its percentile", name, len(*s))
		}
		return ms(d)
	}
	mean := func(s samples) float64 {
		var t time.Duration
		for _, d := range s {
			t += d
		}
		if len(s) == 0 {
			return 0
		}
		return ms(t / time.Duration(len(s)))
	}
	tot, deg := r.m.total, r.m.byLabel[segDegraded]

	gets := float64(len(lat.gets) + len(lat.degraded))
	puts := float64(len(lat.puts))
	ops := gets + puts
	steps := float64(len(lat.steps))
	v["setup_s"] = median(m.setupTimes)
	v["ops_per_s"] = ops / m.elapsed.Seconds()
	v["get_p50_ms"] = pct("get_p50_ms", &lat.gets, 0.5)
	v["get_p99_ms"] = pct("get_p99_ms", &lat.gets, 0.99)
	v["stored_bytes_per_user_byte"] = float64(m.gauges.storedBytes) / float64(m.w.userBytes())
	v["heap_mb"] = m.heapMiB

	v["put_p50_ms"] = pct("put_p50_ms", &lat.puts, 0.5)
	v["put_p99_ms"] = pct("put_p99_ms", &lat.puts, 0.99)
	v["step_p50_ms"] = pct("step_p50_ms", &lat.steps, 0.5)
	v["degraded_get_p50_ms"] = pct("degraded_get_p50_ms", &lat.degraded, 0.5)
	v["degraded_get_p99_ms"] = pct("degraded_get_p99_ms", &lat.degraded, 0.99)
	v["recover_p50_ms"] = pct("recover_p50_ms", &lat.recovers, 0.5)
	v["failed_op_ratio"] = ratio(float64(r.tal.failed.Load()), float64(r.tal.attempted.Load()))

	span := func(name string) *spanStats {
		if s := m.spans[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	v["client.gets"] = gets
	v["client.puts"] = puts
	v["client.degraded_gets"] = float64(len(lat.degraded))
	v["client.get_p99_ms"] = v["get_p99_ms"]
	v["client.get_self_ms"] = ms(span(spanGet).meanSelf)
	v["client.put_self_ms"] = ms(span(spanPut).meanSelf)
	v["client.put_p50_ms"] = v["put_p50_ms"]
	v["client.put_p99_ms"] = v["put_p99_ms"]
	v["client.degraded_get_p50_ms"] = v["degraded_get_p50_ms"]
	v["client.degraded_get_p99_ms"] = v["degraded_get_p99_ms"]
	v["client.metadata_ms_per_get"] = ratio(tot["metadata_ns"]/1e6, gets)
	v["client.retries_per_op"] = ratio(tot["retries"], ops)
	v["client.faults_per_op"] = ratio(tot["faults"], ops)
	v["client.failovers"] = tot["failovers"]
	v["step.count"] = steps
	v["step.p50_ms"] = v["step_p50_ms"]
	v["step.self_ms"] = ms(span(spanStep).meanSelf)
	v["server.end_step_ms"] = ms(span(spanEndStep).meanDur)
	v["server.encodes"] = tot["encodes"]
	v["server.encodes_per_step"] = ratio(tot["encodes"], steps)
	v["server.encode_ms_per_step"] = ratio(tot["encode_ns"]/1e6, steps)
	v["server.classify_ms_per_step"] = ratio(tot["classify_ns"]/1e6, steps)
	v["server.transport_ms_per_put"] = ratio(tot["transport_ns"]/1e6, puts)
	v["server.demotions_per_step"] = ratio(float64(r.demoted), steps)
	v["server.promotions_per_step"] = ratio(float64(r.promoted), steps)
	v["server.encoded_objects"] = float64(m.gauges.encoded)
	v["server.dir_entries"] = float64(m.gauges.dirEntries)
	v["erasure.encode_mb_per_s"] = m.cal.encodeMBps
	v["erasure.reconstruct_mb_per_s"] = m.cal.reconstructMBps
	v["erasure.decode_ms_per_degraded_get"] = ratio(deg["decode_ns"]/1e6, float64(len(lat.degraded)))
	lookups := tot["dcache_hits"] + tot["dcache_misses"]
	v["erasure.decode_cache_hit_ratio"] = ratio(tot["dcache_hits"], lookups)
	v["erasure.decode_cache_lookups"] = lookups
	v["transport.rtt_us_1k"] = float64(m.cal.rtt1k) / 1e3
	v["transport.rtt_us_256k"] = float64(m.cal.rtt256k) / 1e3
	poolGets := tot["pool_hits"] + tot["pool_misses"]
	v["transport.pool_hit_ratio"] = ratio(tot["pool_hits"], poolGets)
	v["transport.pool_gets"] = poolGets
	v["transport.mux_redials"] = tot["mux_redials"]
	v["storage.spills_per_step"] = ratio(tot["spills"], steps)
	v["storage.cold_reads_per_get"] = ratio(tot["cold_reads"], gets)
	v["storage.compactions"] = tot["compactions"]
	v["storage.backpressure_stalls"] = tot["stalls"]
	v["recovery.cycles"] = float64(len(lat.recovers))
	v["recovery.replace_ms"] = mean(r.replaceTimes)
	v["recovery.recover_ms"] = mean(r.recoverTimes)
	v["recovery.cycle_p50_ms"] = v["recover_p50_ms"]
	v["recovery.objects_repaired"] = float64(r.repaired)
	p0, p1 := m.proc[0], m.proc[1]
	v["proc.ops"] = ops
	v["proc.cpu_ms_per_op"] = ratio(ms(p1.cpu-p0.cpu), ops)
	v["proc.allocs_per_op"] = ratio(float64(p1.allocs-p0.allocs), ops)
	v["proc.alloc_kb_per_op"] = ratio(float64(p1.alloc-p0.alloc)/1024, ops)
	v["proc.gc_count"] = float64(p1.gcCount - p0.gcCount)
	v["trace.spans"] = float64(m.spanCount)
	v["trace.span_cost_ns"] = float64(m.cal.spanCost)
	if m.o.trace {
		v["trace.ops_per_s"] = v["ops_per_s"]
		v["trace.get_p50_ms"] = v["get_p50_ms"]
	}
	return v, err
}

// printReport writes the human-readable report: the environment, every
// end-to-end metric by name and unit, and the per-layer metrics of a
// traced run.
func printReport(out io.Writer, o options, res *result, m measurement) {
	env, _ := json.Marshal(res.Env)
	fmt.Fprintf(out, "env %s\n", env)
	fmt.Fprintf(out, "workload %s  seed %d  window %.2fs  setups %v s\n", o.workload, o.seed, m.elapsed.Seconds(), m.setupTimes)
	line := func(d metricDef) {
		n, timed := res.Samples[d.name]
		switch {
		case timed && n == 0:
			fmt.Fprintf(out, "  %-36s n/a (no such operation in this workload)\n", d.name)
		case timed:
			fmt.Fprintf(out, "  %-36s %14.6g %-7s n=%d\n", d.name, res.Metrics[d.name], d.unit, n)
		default:
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
		}
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, d := range endToEnd {
		line(d)
	}
	for _, d := range reportMetrics {
		line(d)
	}
	fmt.Fprintf(out, "  %-36s %d of %d ops failed, %d wrong reads\n", "correctness", res.Failed, res.Attempted, res.Wrong)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILURE (rerun with --workload %s --seed %d): %s\n", o.workload, o.seed, f)
	}
	if o.trace {
		fmt.Fprintln(out, "per-layer (traced run):")
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
		}
		if res.SpanFile != "" {
			fmt.Fprintf(out, "spans written to %s\n", res.SpanFile)
		}
	}
}

// saveResult keeps the run's full result under the work directory and,
// when the other mode already ran with this workload and seed, prints the
// tracing overhead as the difference between the two runs.
func saveResult(o options, res *result) {
	dir := filepath.Join(o.workdir, "results")
	file := func(trace bool) string {
		t := 0
		if trace {
			t = 1
		}
		return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	data, _ := json.MarshalIndent(res, "", " ")
	if err := os.WriteFile(file(o.trace), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
	}
	other, err := os.ReadFile(file(!o.trace))
	if err != nil {
		return
	}
	var prev result
	if json.Unmarshal(other, &prev) != nil {
		return
	}
	traced, untraced := res.Metrics, prev.Metrics
	if !o.trace {
		traced, untraced = untraced, traced
	}
	for _, name := range []string{"ops_per_s", "get_p50_ms"} {
		t, u := traced[name], untraced[name]
		fmt.Printf("tracing overhead %s: untraced %.6g, traced %.6g (%+.1f%%)\n", name, u, t, 100*ratio(t-u, u))
	}
}
