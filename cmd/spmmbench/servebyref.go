package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// The -byref mode is the repeat-traffic A/B for the content-addressed
// layer (BENCH_PR8.json): the same matrix is sketched over and over, first
// inline (every request ships the full CSC body) and then by reference
// (one upload, then fingerprint-sized frames). Both phases go through the
// same loopback HTTP server and the same wire codec, and the replay
// asserts the two answers are bit-identical — by-reference changes bytes
// on the wire, never bits in Â. A final PATCH phase applies a small ΔA
// and sketches the merged matrix by its new fingerprint, measuring the
// incremental-update traffic against a full re-upload.

var byref = flag.Bool("byref", false, "replay repeat sketches of one matrix inline vs by-reference (content-addressed A/B)")

// byrefRecord is the JSON schema of a -byref run (BENCH_PR8.json).
type byrefRecord struct {
	Clients  int   `json:"clients"`
	Requests int64 `json:"requests_per_phase"`
	MatrixM  int   `json:"matrix_m"`
	MatrixN  int   `json:"matrix_n"`
	NNZ      int   `json:"matrix_nnz"`
	D        int   `json:"sketch_d"`

	// The headline: bytes the server reads per repeat request, per phase.
	MatrixFrameBytes  int64   `json:"matrix_frame_bytes"`
	InlineBytesPerReq int64   `json:"inline_bytes_in_per_request"`
	ByRefBytesPerReq  int64   `json:"byref_bytes_in_per_request"`
	PayloadReduction  float64 `json:"payload_reduction_x"`
	BitIdentical      bool    `json:"bit_identical"`

	InlineP50us int64   `json:"inline_e2e_p50_us"`
	InlineP99us int64   `json:"inline_e2e_p99_us"`
	ByRefP50us  int64   `json:"byref_e2e_p50_us"`
	ByRefP99us  int64   `json:"byref_e2e_p99_us"`
	InlineReqS  float64 `json:"inline_requests_per_s"`
	ByRefReqS   float64 `json:"byref_requests_per_s"`

	// PATCH phase: ship ΔA, sketch the merged matrix by its fingerprint.
	DeltaNNZ          int   `json:"delta_nnz"`
	DeltaFrameBytes   int64 `json:"delta_frame_bytes"`
	PatchBitIdentical bool  `json:"patch_bit_identical"`
}

// byrefReplay hammers fn from *clients goroutines until budget requests
// are done, returning sorted e2e latencies and the wall time.
func byrefReplay(budget int64, fn func(c int) error) ([]time.Duration, time.Duration) {
	var issued int64
	var mu sync.Mutex
	var all []time.Duration
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lats []time.Duration
			for {
				mu.Lock()
				if issued >= budget {
					mu.Unlock()
					break
				}
				issued++
				mu.Unlock()
				t0 := time.Now()
				if err := fn(c); err != nil {
					fmt.Fprintln(os.Stderr, "spmmbench: byref replay:", err)
					continue
				}
				lats = append(lats, time.Since(t0))
			}
			mu.Lock()
			all = append(all, lats...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, wall
}

func byrefSuite() {
	// Sized so the inline frame is ~2.0 MB: 24 + 8·(n+1) + 16·nnz bytes.
	const (
		m   = 50000
		n   = 2000
		nnz = 125000
		d   = 64
	)
	a := sparse.PowerLaw(m, n, nnz, 1.0, *seed)
	intValues(a)
	opts := core.Options{Dist: rng.Rademacher, Source: rng.SourceBatchXoshiro, Seed: uint64(*seed), Workers: 2}
	frame, err := wire.EncodeMatrixPutFrame(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	matrixFrameBytes := int64(len(frame))

	svc := service.New(service.Config{Capacity: *cacheCap, MaxInFlight: *inFlight})
	defer svc.Close()
	srv := server.New(svc, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "spmmbench: serve:", err)
		}
	}()
	base := "http://" + l.Addr().String()
	cls := make([]*client.Client, *clients)
	for i := range cls {
		cls[i] = client.New(base, client.Config{MaxRetries: 20, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond})
	}
	ctx := context.Background()
	budget := int64(*requests)

	// Phase 1 — inline: every request carries the full matrix body.
	var refAhat *dense.Matrix
	var refMu sync.Mutex
	before := scrapeTransport(base)
	inlineLats, inlineWall := byrefReplay(budget, func(c int) error {
		ahat, _, err := cls[c].Sketch(ctx, a, d, opts)
		if err != nil {
			return err
		}
		refMu.Lock()
		if refAhat == nil {
			refAhat = ahat
		}
		refMu.Unlock()
		return nil
	})
	after := scrapeTransport(base)
	inlinePerReq := int64(0)
	if reqs := after.requests - before.requests; reqs > 0 {
		inlinePerReq = (after.bytesIn - before.bytesIn) / reqs
	}

	// Phase 2 — by reference: seed once (upload), then replay fingerprints.
	seedAhat, _, err := cls[0].SketchCached(ctx, a, d, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: byref seed:", err)
		os.Exit(1)
	}
	bitOK := bitEqual(refAhat, seedAhat)
	fp := a.Fingerprint()
	before = scrapeTransport(base)
	byrefLats, byrefWall := byrefReplay(budget, func(c int) error {
		ahat, _, err := cls[c].SketchRef(ctx, fp, d, opts)
		if err != nil {
			return err
		}
		if !bitEqual(refAhat, ahat) {
			return fmt.Errorf("by-ref answer diverged from inline")
		}
		return nil
	})
	after = scrapeTransport(base)
	byrefPerReq := int64(0)
	if reqs := after.requests - before.requests; reqs > 0 {
		byrefPerReq = (after.bytesIn - before.bytesIn) / reqs
	}

	// Phase 3 — PATCH: a small ΔA, then one by-ref sketch of the merge.
	delta := sparse.RandomUniform(m, n, 50.0/(float64(m)*float64(n)), *seed+1)
	intValues(delta)
	deltaFrame, err := wire.EncodeMatrixDeltaFrame(&wire.MatrixDelta{Fp: fp, Delta: delta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	sum, err := sparse.Add(a, delta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	// PATCH needs the base matrix resident (a sketch served from a warm
	// plan cache does not imply store residency); the explicit PUT is
	// idempotent and what a patching client does anyway.
	if _, err := cls[0].PutMatrix(ctx, a); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: put:", err)
	}
	patchOK := false
	if info, err := cls[0].PatchMatrix(ctx, fp, delta); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: patch:", err)
	} else if got, _, err := cls[0].SketchRef(ctx, info.Fp, d, opts); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: patched sketch:", err)
	} else {
		want, _, err := svc.Sketch(ctx, sum, d, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
		} else {
			patchOK = bitEqual(want, got)
		}
	}

	reduction := 0.0
	if byrefPerReq > 0 {
		reduction = float64(inlinePerReq) / float64(byrefPerReq)
	}
	fmt.Printf("\nBY-REF SUITE — %d repeat sketches of one %dx%d matrix (nnz=%d, d=%d), %d clients, GOMAXPROCS=%d\n",
		budget, m, n, nnz, d, *clients, runtime.GOMAXPROCS(0))
	fmt.Printf("  inline    %8d B/request in   wall %v (%.0f req/s)   p50 %v  p99 %v\n",
		inlinePerReq, inlineWall.Round(time.Millisecond), float64(budget)/inlineWall.Seconds(),
		quantileExact(inlineLats, 0.50), quantileExact(inlineLats, 0.99))
	fmt.Printf("  by-ref    %8d B/request in   wall %v (%.0f req/s)   p50 %v  p99 %v\n",
		byrefPerReq, byrefWall.Round(time.Millisecond), float64(budget)/byrefWall.Seconds(),
		quantileExact(byrefLats, 0.50), quantileExact(byrefLats, 0.99))
	fmt.Printf("  payload   %.0fx smaller (matrix frame %d B -> %d B SketchRef frame)   bit-identical %v\n",
		reduction, matrixFrameBytes, wire.SketchRefWireSize, bitOK)
	fmt.Printf("  patch     ΔA nnz=%d in a %d B frame vs %d B re-upload   merged sketch bit-identical %v\n",
		delta.NNZ(), len(deltaFrame), matrixFrameBytes, patchOK)

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: shutdown:", err)
	}
	cancel()
	<-serveDone

	if *jsonOut != "" {
		rec := byrefRecord{
			Clients:           *clients,
			Requests:          budget,
			MatrixM:           m,
			MatrixN:           n,
			NNZ:               a.NNZ(),
			D:                 d,
			MatrixFrameBytes:  matrixFrameBytes,
			InlineBytesPerReq: inlinePerReq,
			ByRefBytesPerReq:  byrefPerReq,
			PayloadReduction:  reduction,
			BitIdentical:      bitOK,
			InlineP50us:       quantileExact(inlineLats, 0.50).Microseconds(),
			InlineP99us:       quantileExact(inlineLats, 0.99).Microseconds(),
			ByRefP50us:        quantileExact(byrefLats, 0.50).Microseconds(),
			ByRefP99us:        quantileExact(byrefLats, 0.99).Microseconds(),
			InlineReqS:        float64(budget) / inlineWall.Seconds(),
			ByRefReqS:         float64(budget) / byrefWall.Seconds(),
			DeltaNNZ:          delta.NNZ(),
			DeltaFrameBytes:   int64(len(deltaFrame)),
			PatchBitIdentical: patchOK,
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			return
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			return
		}
		fmt.Printf("(wrote %s)\n", *jsonOut)
	}
}

// intValues rewrites the matrix values to small nonzero integers: with a
// ±1 sketch, every partial sum stays an exact integer, so the incremental
// Â + S·ΔA served after a PATCH is bit-identical to a one-shot of A+ΔA —
// the regime the metamorphic suite pins. (With arbitrary reals the two
// association orders may differ in the last ulp.)
func intValues(a *sparse.CSC) {
	for k := range a.Val {
		v := float64(k%9 - 4)
		if v == 0 {
			v = 5
		}
		a.Val[k] = v
	}
}

// bitEqual compares two sketches by Float64bits.
func bitEqual(a, b *dense.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				return false
			}
		}
	}
	return true
}
