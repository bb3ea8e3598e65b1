package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990 leaves exactly 10 beyond
		{9999, 99, true},    // 99.9 would leave 9
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{21, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && samplesBeyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestAttributeParallelChildren(t *testing.T) {
	// client [0,100) → server [10,90) → two overlapping RPCs [20,50) and
	// [30,70). The server's self time is 80 minus the union [20,70) of its
	// children, 30. The caller waits for the later RPC; the earlier one is
	// charged only for the stretch before the later one started.
	spans := []span{
		{ID: 1, Req: 1, Name: layerClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: layerServer, Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 1, Name: layerPeerRPC, Start: 20, End: 50},
		{ID: 4, Parent: 2, Req: 1, Name: layerPeerRPC, Start: 30, End: 70},
		{ID: 5, Parent: 99, Req: 1, Name: layerWorkerServer, Start: 31, End: 40},
	}
	trees, orphans := groupRequests(spans)
	if orphans != 1 || len(trees) != 1 {
		t.Fatalf("trees %d orphans %d, want 1 and 1", len(trees), orphans)
	}
	got := map[string]int64{}
	trees[1].attribute(got)
	want := map[string]int64{layerClient: 20, layerServer: 30, layerPeerRPC: 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attribute = %v, want %v", got, want)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 100 {
		t.Errorf("shares sum to %d, want the root's 100", total)
	}
}

func TestAttributeSelfTimeOverlappingChildren(t *testing.T) {
	// backend [0,100) with children [10,40), [30,60), [90,120), [-5,2):
	// clipped to the parent their union is [0,2)+[10,60)+[90,100) = 62, so
	// the backend's self time is 38.
	spans := []span{
		{ID: 1, Req: 3, Name: layerBackend, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 3, Name: layerPeerRPC, Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 3, Name: layerPeerRPC, Start: 30, End: 60},
		{ID: 4, Parent: 1, Req: 3, Name: layerPeerRPC, Start: 90, End: 120},
		{ID: 5, Parent: 1, Req: 3, Name: layerPeerRPC, Start: -5, End: 2},
	}
	trees, _ := groupRequests(spans)
	got := map[string]int64{}
	trees[3].attribute(got)
	if got[layerBackend] != 38 || got[layerPeerRPC] != 62 {
		t.Errorf("attribute = %v, want backend 38 peer_rpc 62", got)
	}
}

func TestAttributeChildOutsideParent(t *testing.T) {
	// A child that outlives its parent (a cancelled hedge) is clipped.
	spans := []span{
		{ID: 1, Req: 7, Name: layerClient, Start: 0, End: 50},
		{ID: 2, Parent: 1, Req: 7, Name: layerBackend, Start: 10, End: 80},
	}
	trees, _ := groupRequests(spans)
	got := map[string]int64{}
	trees[7].attribute(got)
	if got[layerClient] != 10 || got[layerBackend] != 40 {
		t.Errorf("attribute = %v, want client 10 backend 40", got)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(42, 200, 20000)
	b := poissonSchedule(42, 200, 20000)
	c := poissonSchedule(43, 200, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule not increasing")
	}
	// 20000 arrivals at 200/s span about 100 s.
	if span := a[len(a)-1].Seconds(); math.Abs(span-100) > 3 {
		t.Errorf("schedule spans %.1f s, want about 100", span)
	}
	za, zb := newZipfPicker(seeded(5, saltMix), 1.1, 12), newZipfPicker(seeded(5, saltMix), 1.1, 12)
	for i := 0; i < 1000; i++ {
		x, y := za.next(), zb.next()
		if x != y || x < 0 || x >= 12 {
			t.Fatalf("zipf draw %d: %d vs %d", i, x, y)
		}
	}
}

const promBefore = `# HELP sketchsp_http_requests_total Requests.
# TYPE sketchsp_http_requests_total counter
sketchsp_http_requests_total 10
sketchsp_shard_peer_bytes_total{peer="http://a"} 100
sketchsp_shard_peer_bytes_total{peer="http://b"} 50
sketchsp_http_decode_seconds_bucket{le="0.001"} 4
sketchsp_http_decode_seconds_sum 0.5
sketchsp_http_decode_seconds_count 10
`

const promAfter = `# HELP sketchsp_http_requests_total Requests.
# TYPE sketchsp_http_requests_total counter
sketchsp_http_requests_total 25
sketchsp_shard_peer_bytes_total{peer="http://a"} 160
sketchsp_shard_peer_bytes_total{peer="http://b"} 50
sketchsp_shard_peer_bytes_total{peer="http://c"} 7
sketchsp_http_decode_seconds_bucket{le="0.001"} 9
sketchsp_http_decode_seconds_sum 1.25
sketchsp_http_decode_seconds_count 25
sketchsp_http_requests_total_extra 3
`

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for name, want := range map[string]float64{
		"sketchsp_http_requests_total":       15,
		"sketchsp_shard_peer_bytes_total":    67, // 60 + 0 + a series born in the phase
		"sketchsp_http_decode_seconds_sum":   0.75,
		"sketchsp_http_decode_seconds_count": 15,
	} {
		if got := d.sum(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
	m := merged(d, d)
	if got := m.sum("sketchsp_http_requests_total"); got != 30 {
		t.Errorf("merged requests = %v, want 30", got)
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestWindowRate(t *testing.T) {
	p := &phase{wall: 2 * time.Second}
	// 10 ops in each of the first three windows, 40 in the last.
	for w := 0; w < 4; w++ {
		n := 10
		if w == 3 {
			n = 40
		}
		for i := 0; i < n; i++ {
			p.recs = append(p.recs, opRecord{done: time.Duration(w)*rateWindow + time.Millisecond})
		}
	}
	if got := p.windowRate(one); got != 20 {
		t.Errorf("windowRate = %v, want the median window's 20/s", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric and workload names the
// program prints equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
}
