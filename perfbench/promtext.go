package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// series maps a Prometheus sample key — the metric name with its label set
// as written, e.g. `sketchsp_shard_peer_bytes_total{peer="http://x"}` — to
// its value.
type series map[string]float64

// parseProm reads Prometheus text exposition: comment lines are skipped,
// every other line is `key value`. It is written against the format, not
// against the program's own parser, so the benchmark reads /metrics the
// way any scraper would.
func parseProm(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(text, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", line, text)
		}
		v, err := strconv.ParseFloat(text[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(text[:cut])] = v
	}
	return out, sc.Err()
}

// delta returns after − before for every key of after; a key absent before
// counts from 0 (a labelled series born during the phase).
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the values of every series named name, whatever its labels.
func (s series) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || (strings.HasPrefix(k, name) && k[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// add merges o into s key by key (several servers of one stack).
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// scrape fetches and parses one server's /metrics.
func scrape(hc *http.Client, baseURL string) (series, error) {
	resp, err := hc.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", baseURL, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
