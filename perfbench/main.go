// Command perfbench is the repository's benchmark. It runs one named
// workload against sketchsp through the program's own package surfaces
// (core plans, the service, the HTTP server and client, the shard
// coordinator), checks every answer bit-for-bit against a direct-plan
// reference, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, measured from spans the benchmark records around its calls
// into each layer and from deltas of the servers' /metrics series.
//
// Build and run from the repository root with perfbench/run.sh, e.g.
//
//	bash perfbench/run.sh --workload serve-inline --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sketchsp/internal/rng"
)

// runCtx is what every workload receives.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	workers int // plan workers and closed-loop callers: nproc
	t       *tracer
	ceil    ceilings
}

// outcome is what a workload hands back.
type outcome struct {
	setupS          float64
	setupMismatches int
	phases          []*phase
	e2e             map[string]float64
	layer           map[string]float64
	spans           []span
	notes           []string
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

type workload struct {
	run  func(*runCtx) (*outcome, error)
	dist rng.Distribution // the dense distribution, for the fill ceiling
	bd   int              // the dense plans' b_d, the fill buffer length
}

var workloads = map[string]workload{
	"sketch-inproc": {runSketchInproc, rng.Uniform11, inprocD},
	"serve-inline":  {runServeInline, rng.Uniform11, inlineD},
	"fleet-byref":   {runFleetByref, rng.Rademacher, fleetD},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record is the run record written next to the spans.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Start    string   `json:"start"`
	Host     hostInfo `json:"host"`
	Ceilings ceilings `json:"ceilings"`
	Phases   []*phase `json:"phases"`
	Notes    []string `json:"notes"`
	Result   result   `json:"result"`
}

// outDir, under the working directory, receives the run record and spans.
const outDir = ".bench_build/perfbench-out"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sketch-inproc, serve-inline or fleet-byref")
	seed := flag.Int64("seed", 1, "seed every input, schedule and request mix derives from")
	seconds := flag.Float64("seconds", 20, "measured time of one run")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	start := time.Now()
	host := readHost(".")
	ceil := measureStream(host.LLCBytes)
	ceil.FillDist, ceil.FillBufferLen = w.dist.String(), w.bd
	ceil.FillNSPerSample = fillNSPerSample(w.dist, w.bd)
	rc := &runCtx{seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: runtime.NumCPU(), t: newTracer(), ceil: ceil}

	tot0, steal0 := cpuTimes()
	out, err := w.run(rc)
	tot1, steal1 := cpuTimes()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: out.setupMismatches == 0, Metrics: map[string]metricOut{}}
	for _, p := range out.phases {
		res.Attempted += p.Sent
		res.Failed += p.Failed
		if p.Mismatch > 0 {
			res.Correct = false
		}
	}
	out.layer["rng.fill_ns_per_sample"] = ceil.FillNSPerSample
	out.layer["host.stream_triad_gbs"] = ceil.StreamTriadGBs
	out.layer["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	defs, vals := endToEnd, out.e2e
	if rc.trace {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		switch {
		case !ok && !rc.trace:
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Fprintf(os.Stderr, "perfbench: %s measured %s = %v\n", *name, d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}

	fmt.Printf("# host: %d CPUs (GOMAXPROCS %d), %s, avx2=%v avx512f=%v, LLC %d MiB, %s, source %s\n",
		host.NProc, host.GOMAXPROCS, host.CPUModel, host.AVX2, host.AVX512F, host.LLCBytes>>20, host.GoVersion, host.SourceDigest)
	fmt.Printf("# ceilings: STREAM triad %.2f GB/s over 3 arrays of %d MiB (LLC %d MiB, arrays >= 4x LLC: %v); rng fill %.3f ns/sample (%s, buffers of %d)\n",
		ceil.StreamTriadGBs, ceil.StreamArrayBytes>>20, ceil.LLCBytes>>20, ceil.StreamGE4xLLC, ceil.FillNSPerSample, ceil.FillDist, ceil.FillBufferLen)
	for _, p := range out.phases {
		fmt.Printf("# phase %-10s traced=%-5v sent=%d succeeded=%d failed=%d mismatched=%d wall=%.2fs\n",
			p.Name, p.Traced, p.Sent, p.Succeeded, p.Failed, p.Mismatch, p.WallS)
	}
	out.notes = append(out.notes, fmt.Sprintf("hypervisor steal during the workload: %.1f%% of CPU time",
		100*ratio(steal1-steal0, tot1-tot0)))
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}

	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: rc.trace,
		Start: start.UTC().Format(time.RFC3339), Host: host, Ceilings: ceil,
		Phases: out.phases, Notes: out.notes, Result: res}
	if err := writeRecord(outDir, rec, out.spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: an answer differed from its reference")
		return 1
	}
	return 0
}

// writeRecord writes the run record, and the spans of a traced run, under
// dir.
func writeRecord(dir string, rec record, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v", rec.Workload, rec.Seed, rec.Trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if rec.Trace {
		return writeSpans(base+".spans.jsonl", spans)
	}
	return nil
}
