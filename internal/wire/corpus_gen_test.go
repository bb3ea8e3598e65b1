package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// The committed degenerate corpus seeds. Each is a well-framed message whose payload is broken in a way
// a length prefix alone cannot catch, so the fuzzer starts from inputs that
// exercise the deep rejection paths rather than having to mutate its way
// there:
//
//   - ref-truncated-fingerprint: a one-item by-reference sketch request
//     cut one byte short of its fixed SketchRefWireSize frame.
//   - delta-overlapping-rows: a matrix delta whose CSC carries the same row
//     index twice in one column (rejected by sparse validation, not by any
//     size check).
//   - put-oversized-nnz: a matrix put whose declared nnz is ~10^12 while
//     the payload holds two entries — the size guard must refuse to
//     allocate before touching the arrays.
//
// The solve messages add three more:
//
//   - solve-bad-method: a well-formed solve request whose method byte is
//     one past the last defined SolveMethod.
//   - solve-bad-flags: a solve request with an undefined flag bit set —
//     unknown flags must be rejected, not ignored, so the bits stay free
//     for future versions.
//   - jobstatus-bad-state: a job status whose state byte is past
//     StateCancelled.
//
// Per-peer shard batches — sketch requests of placed items — add three
// more:
//
//   - shardbatch-truncated: a valid two-shard request with the last payload
//     byte cut off — the final item's CSC claims more bytes than remain.
//   - shardbatch-overlapping-ranges: two shards both starting at j0=0, the
//     duplicate-coverage shape the decoder (and one layer up, the
//     Accumulator) must reject.
//   - shardbatch-oversized-count: a count field of ~4 billion over a
//     two-item payload — the count guard must refuse before allocating
//     items.
//
// The seeds are generated deterministically from the codec itself; run
//
//	WIRE_CORPUS_WRITE=1 go test ./internal/wire -run TestCommittedCorpusSeeds
//
// to rewrite them after a wire-format change. The test fails when a
// committed file drifts from what this package would generate.
func corpusSeeds(t *testing.T) map[string][]byte {
	t.Helper()

	// Seed 1: valid by-reference request, fingerprint truncated by one byte.
	ref := AppendSketchRequest(nil, []SketchItem{{
		D:     8,
		Opts:  core.Options{Dist: rng.SJLT, Source: rng.SourcePhilox, Seed: 42, Sparsity: 2},
		ByRef: true,
		Fp:    sparse.Fingerprint{M: 128, N: 64, NNZ: 512, Hash: 0x0123456789abcdef},
	}})
	truncated := mustFrame(MsgSketchRequest, ref[:len(ref)-1])

	// Seed 2: matrix delta whose CSC repeats row 1 in column 0. Built from
	// a valid two-entry delta, then the second row index is patched to
	// collide with the first. Payload layout: fp (32) + m,n,nnz (24) +
	// colptr (8*(n+1)) + rowidx (8*nnz) + vals.
	delta, err := sparse.NewCSC(3, 2, []int{0, 2, 2}, []int{1, 2}, []float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	dp := AppendMatrixDelta(nil, &MatrixDelta{Fp: delta.Fingerprint(), Delta: delta})
	rowIdxOff := 32 + 24 + 8*(delta.N+1)
	copy(dp[rowIdxOff+8:rowIdxOff+16], dp[rowIdxOff:rowIdxOff+8])
	overlapping := mustFrame(MsgMatrixDelta, dp)

	// Seed 3: matrix put declaring nnz = 2^40 over a two-entry payload. The
	// nnz u64 sits after m and n.
	a, err := sparse.NewCSC(4, 2, []int{0, 1, 2}, []int{0, 3}, []float64{2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pp := AppendMatrixPut(nil, a)
	huge := appendU64(nil, 1<<40)
	copy(pp[16:24], huge)
	oversized := mustFrame(MsgMatrixPut, pp)

	// Seed 4: solve request with method byte one past SolveRandSVD. The
	// method is payload byte 0.
	sp := AppendSolveRequest(nil, &SolveRequest{
		Method: SolveSAPQR, Gamma: 4, B: []float64{1, 2}, A: a,
	})
	sp[0] = byte(maxSolveMethod) + 1
	badMethod := mustFrame(MsgSolveRequest, sp)

	// Seed 5: solve request with undefined flag bit 2 set (byte 1).
	fp := AppendSolveRequest(nil, &SolveRequest{
		Method: SolveLSQRD, B: []float64{0.5}, A: a,
	})
	fp[1] |= 4
	badFlags := mustFrame(MsgSolveRequest, fp)

	// Seed 6: job status whose state byte (payload byte 1) is past
	// StateCancelled.
	jp := AppendJobStatus(nil, &JobStatus{
		Status: StatusOK, ID: "c0ffee", State: 1, Iters: 3, Resid: 0.5,
	})
	jp[1] = 9
	badState := mustFrame(MsgJobStatus, jp)

	// Seed 7: two-shard batch, truncated one byte short of the payload end.
	shardA, err := sparse.NewCSC(4, 2, []int{0, 1, 2}, []int{1, 0}, []float64{1, -2})
	if err != nil {
		t.Fatal(err)
	}
	batch := []SketchItem{
		{D: 3, Opts: core.Options{Dist: rng.Rademacher, Seed: 5},
			A: shardA, Placed: true, J0: 0, NTotal: 8},
		{D: 3, Opts: core.Options{Dist: rng.Rademacher, Seed: 5},
			A: shardA, Placed: true, J0: 4, NTotal: 8},
	}
	bp := AppendSketchRequest(nil, batch)
	batchTruncated := mustFrame(MsgSketchRequest, bp[:len(bp)-1])

	// Seed 8: both shards start at j0=0 — overlapping column coverage.
	overlapBatch := []SketchItem{batch[0], batch[0]}
	batchOverlap := mustFrame(MsgSketchRequest, AppendSketchRequest(nil, overlapBatch))

	// Seed 9: count patched to ~2^32 over the two-item payload (count is
	// payload bytes 0..4).
	cp := AppendSketchRequest(nil, batch)
	copy(cp[0:4], appendU32(nil, 1<<32-2))
	batchCount := mustFrame(MsgSketchRequest, cp)

	return map[string][]byte{
		"ref-truncated-fingerprint":     truncated,
		"delta-overlapping-rows":        overlapping,
		"put-oversized-nnz":             oversized,
		"solve-bad-method":              badMethod,
		"solve-bad-flags":               badFlags,
		"jobstatus-bad-state":           badState,
		"shardbatch-truncated":          batchTruncated,
		"shardbatch-overlapping-ranges": batchOverlap,
		"shardbatch-oversized-count":    batchCount,
	}
}

func TestCommittedCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundtrip")
	for name, frame := range corpusSeeds(t) {
		// Every seed must be framed cleanly, then rejected by its decoder —
		// the rejection happens past SplitFrame, in the payload decode.
		typ, payload, _, err := SplitFrame(frame, 1<<22)
		if err != nil {
			t.Fatalf("%s: frame must split cleanly, got %v", name, err)
		}
		switch typ {
		case MsgSketchRequest:
			_, err = DecodeSketchRequest(payload)
		case MsgMatrixDelta:
			_, err = DecodeMatrixDelta(payload)
		case MsgMatrixPut:
			_, err = DecodeMatrixPut(payload)
		case MsgSolveRequest:
			_, err = DecodeSolveRequest(payload)
		case MsgJobStatus:
			_, err = DecodeJobStatus(payload)
		default:
			t.Fatalf("%s: unexpected type %v", name, typ)
		}
		if err == nil {
			t.Fatalf("%s: degenerate seed decoded cleanly — it must be rejected", name)
		}

		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(frame))))
		path := filepath.Join(dir, name)
		if os.Getenv("WIRE_CORPUS_WRITE") == "1" {
			if werr := os.WriteFile(path, want, 0o644); werr != nil {
				t.Fatal(werr)
			}
			continue
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("%s: committed corpus seed missing (regenerate with WIRE_CORPUS_WRITE=1): %v", name, rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: committed corpus seed drifted from the codec (regenerate with WIRE_CORPUS_WRITE=1)", name)
		}
	}
}
