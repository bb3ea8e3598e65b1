package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"sketchsp/internal/analysis"
	"sketchsp/internal/rng"
)

// hostInfo is the fingerprint recorded with every run.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	AVX2       bool   `json:"avx2"`
	AVX512F    bool   `json:"avx512f"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	// SourceDigest identifies the code under test: a SHA-256 over the
	// module's Go sources and go.mod outside the benchmark's own
	// directory. The checkout the benchmark runs in need not be a git
	// repository, so this stands in for the commit.
	SourceDigest string `json:"source_digest"`
}

func readHost(repoRoot string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if h.CPUModel == "" {
					h.CPUModel = strings.TrimSpace(v)
				}
			case "flags":
				for _, fl := range strings.Fields(v) {
					h.AVX2 = h.AVX2 || fl == "avx2"
					h.AVX512F = h.AVX512F || fl == "avx512f"
				}
			}
		}
		f.Close()
	}
	h.LLCBytes = llcBytes()
	h.SourceDigest = sourceDigest(repoRoot)
	return h
}

// llcBytes reads the largest cache level's size from sysfs (0 if unknown).
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.ParseInt(strings.TrimSpace(string(lv)), 10, 64)
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(sum, rel+"\x00")
		io.Copy(sum, f)
		f.Close()
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// streamArrayDoubles is the STREAM array length: 128 MiB per array. Four
// times the last-level cache would be the textbook size, but on hosts that
// report a large shared LLC that means gigabytes per array; the record
// states both sizes so the ceiling is read with that in mind.
const streamArrayDoubles = 1 << 24

// ceilings are the in-run hardware references kernel numbers are quoted
// against.
type ceilings struct {
	StreamTriadGBs   float64 `json:"stream_triad_gbs"`
	StreamArrayBytes int64   `json:"stream_array_bytes"`
	LLCBytes         int64   `json:"llc_bytes"`
	StreamGE4xLLC    bool    `json:"stream_arrays_ge_4x_llc"`
	FillNSPerSample  float64 `json:"rng_fill_ns_per_sample"`
	FillBufferLen    int     `json:"rng_fill_buffer_len"`
	FillDist         string  `json:"rng_fill_dist"`
}

func measureStream(llc int64) ceilings {
	res := analysis.RunStream(streamArrayDoubles, 3)
	debug.FreeOSMemory()
	bytes := int64(streamArrayDoubles) * 8
	return ceilings{
		StreamTriadGBs:   res.TriadGBs,
		StreamArrayBytes: bytes,
		LLCBytes:         llc,
		StreamGE4xLLC:    llc > 0 && bytes >= 4*llc,
	}
}

// fillNSPerSample times rng.Sampler.Fill on buffers of the plan's b_d, the
// length the kernels generate per call: the median of reps timed batches.
func fillNSPerSample(dist rng.Distribution, bufLen int) float64 {
	s := rng.NewSampler(rng.NewSource(rng.SourceBatchXoshiro, 1), dist)
	buf := make([]float64, bufLen)
	const perBatch = 1 << 21 // samples per timed batch
	calls := perBatch / bufLen
	const reps = 31
	var rates []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			s.SetState(uint64(r), uint64(i))
			s.Fill(buf)
		}
		rates = append(rates, float64(time.Since(t0))/float64(calls*bufLen))
	}
	return median(rates)
}

// cpuTimes reads the aggregate CPU line of /proc/stat: total jiffies and
// the share stolen by the hypervisor (0, 0 where unavailable).
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
