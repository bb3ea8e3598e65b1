package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// roundtripRequest encodes items, decodes them back, and checks the
// canonical-roundtrip property: the decoded items re-encode to the same
// bytes.
func roundtripRequest(t *testing.T, name string, items []SketchItem) []SketchItem {
	t.Helper()
	payload := AppendSketchRequest(nil, items)
	got, err := DecodeSketchRequest(payload)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if len(got) != len(items) {
		t.Fatalf("%s: decoded %d items, want %d", name, len(got), len(items))
	}
	for i := range got {
		g, w := &got[i], &items[i]
		if g.D != w.D || g.Opts != w.Opts || g.ByRef != w.ByRef || g.Placed != w.Placed ||
			g.J0 != w.J0 || g.NTotal != w.NTotal || g.Cols() != w.Cols() {
			t.Fatalf("%s: item %d decoded %+v, want %+v", name, i, *g, *w)
		}
	}
	if !bytes.Equal(AppendSketchRequest(nil, got), payload) {
		t.Fatalf("%s: re-encode differs", name)
	}
	return got
}

func TestRequestRoundtrip(t *testing.T) {
	optsList := []core.Options{
		{},
		{Algorithm: core.AlgAuto, Dist: rng.Gaussian, Source: rng.SourcePhilox,
			Seed: 42, BlockD: 128, BlockN: 33, Workers: 4,
			RNGCost: 2.5, TuneBlockN: true, Sched: core.SchedUniform},
		{Algorithm: core.Alg4, Dist: rng.ScaledInt, Seed: ^uint64(0), Sched: core.SchedNoSteal},
		{Dist: rng.SJLT, Sparsity: 9, Seed: 3},
		{Algorithm: core.Alg3, Dist: rng.CountSketch, Source: rng.SourcePhilox, Workers: 2},
	}
	for name, a := range testCSCs() {
		for _, opts := range optsList {
			got := roundtripRequest(t, name, []SketchItem{{D: 17, Opts: opts, A: a}})
			if got[0].A.Fingerprint() != a.Fingerprint() {
				t.Fatalf("%s: matrix changed in transit", name)
			}
		}
	}
}

func TestResponseRoundtrip(t *testing.T) {
	ahat := dense.NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	rs := []SketchResponse{
		{Status: StatusOK,
			Stats: core.Stats{Samples: 100, Flops: 2400, SampleTime: time.Millisecond,
				ConvertTime: 2 * time.Millisecond, Total: 5 * time.Millisecond,
				Steals: 3, Imbalance: 1.25},
			Ahat: ahat},
		{Status: StatusOK, Ahat: dense.NewMatrix(0, 0)},
		{Status: StatusOverloaded, Detail: "admission queue full"},
		{Status: StatusInvalidMatrix, Detail: ""},
		{Status: StatusInternal, Detail: "boom"},
	}
	for i := range rs {
		payload := AppendSketchResponse(nil, rs[i:i+1])
		got, err := DecodeSketchResponse(payload)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		g := &got[0]
		if len(got) != 1 || g.Status != rs[i].Status || g.Detail != rs[i].Detail {
			t.Fatalf("resp %d: got %+v", i, got)
		}
		if g.Stats.Samples != rs[i].Stats.Samples || g.Stats.Total != rs[i].Stats.Total ||
			g.Stats.Imbalance != rs[i].Stats.Imbalance || g.Stats.Steals != rs[i].Stats.Steals {
			t.Fatalf("resp %d: stats %+v", i, g.Stats)
		}
		if !bytes.Equal(AppendSketchResponse(nil, got), payload) {
			t.Fatalf("resp %d: re-encode differs", i)
		}
	}
}

func TestBatchRoundtrip(t *testing.T) {
	shapes := testCSCs()
	roundtripRequest(t, "batch", []SketchItem{
		{D: 8, A: shapes["uniform-200x40"]},
		{D: 4, Opts: core.Options{Dist: rng.Rademacher, Seed: 9}, A: shapes["degenerate-0xn"]},
		{D: 1, A: shapes["degenerate-mx0"]},
		{D: 3, ByRef: true, Fp: shapes["emptycols"].Fingerprint()},
	})

	rs := []SketchResponse{
		{Status: StatusOK, Stats: core.Stats{Flops: 2}, Ahat: dense.NewMatrix(2, 2)},
		{Status: StatusOverloaded, Detail: "later"},
	}
	bp := AppendSketchResponse(nil, rs)
	gotR, err := DecodeSketchResponse(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != 2 || gotR[1].Status != StatusOverloaded {
		t.Fatalf("batch responses %+v", gotR)
	}
	if !bytes.Equal(AppendSketchResponse(nil, gotR), bp) {
		t.Fatal("batch response re-encode differs")
	}
	// An empty request encodes no honest ask and is rejected.
	if _, err := DecodeSketchRequest(AppendSketchRequest(nil, nil)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty request: err = %v, want ErrMalformed", err)
	}
}

// TestPeekStatusAndSplitBatchPayload pins the cheap classification paths
// the client's retry loop uses: PeekStatus reads the leading status byte
// of the single-status messages, and ShedError walks a sketch response's
// error items without decoding any matrix.
func TestPeekStatusAndSplitBatchPayload(t *testing.T) {
	shed := AppendMatrixInfo(nil, &MatrixInfo{Status: StatusOverloaded, Detail: "later"})
	if st, err := PeekStatus(shed); err != nil || st != StatusOverloaded {
		t.Errorf("PeekStatus(shed) = %v, %v", st, err)
	}
	if _, err := PeekStatus(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("PeekStatus(empty): err = %v, want ErrMalformed", err)
	}
	if _, err := PeekStatus([]byte{255}); !errors.Is(err, ErrMalformed) {
		t.Errorf("PeekStatus(unknown status): err = %v, want ErrMalformed", err)
	}

	allShed := AppendSketchResponse(nil, []SketchResponse{
		{Status: StatusOverloaded, Detail: "shed"},
		{Status: StatusOverloaded, Detail: "shed too"},
	})
	var se *StatusError
	if err := ShedError(allShed); !errors.As(err, &se) || se.Code != StatusOverloaded || se.Detail != "shed" {
		t.Errorf("ShedError(all shed) = %v, want the first item's overload", err)
	}
	for name, payload := range map[string][]byte{
		"mixed": AppendSketchResponse(nil, []SketchResponse{
			{Status: StatusOverloaded, Detail: "shed"},
			{Status: StatusOK, Ahat: dense.NewMatrix(1, 1)},
		}),
		"ok":        AppendSketchResponse(nil, []SketchResponse{{Status: StatusOK, Ahat: dense.NewMatrix(1, 2)}}),
		"final":     AppendSketchResponse(nil, []SketchResponse{{Status: StatusBadOptions}}),
		"truncated": allShed[:7],
		"empty":     nil,
	} {
		if err := ShedError(payload); err != nil {
			t.Errorf("ShedError(%s) = %v, want nil", name, err)
		}
	}
	if _, err := DecodeSketchResponse(allShed[:7]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated response: err = %v, want ErrMalformed", err)
	}
}

func TestShardRequestRoundtrip(t *testing.T) {
	for name, a := range testCSCs() {
		roundtripRequest(t, name, []SketchItem{{
			D:      9,
			Opts:   core.Options{Dist: rng.Gaussian, Seed: 17, BlockD: 4},
			A:      a,
			Placed: true, J0: 3, NTotal: a.N + 7,
		}})
		roundtripRequest(t, name+"/byref", []SketchItem{{
			D:     9,
			ByRef: true, Fp: a.Fingerprint(),
			Placed: true, J0: 3, NTotal: a.N + 7,
		}})
	}
}

func TestShardRequestPlacementValidation(t *testing.T) {
	a := testCSCs()["uniform-200x40"]
	items := []SketchItem{{D: 3, A: a, Placed: true, J0: 5, NTotal: a.N + 2}}
	payload := AppendSketchRequest(nil, items)
	if _, err := DecodeSketchRequest(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overhanging shard decoded: %v", err)
	}
	items[0].NTotal = a.N + 5 // exactly j0 + n: legal
	if _, err := DecodeSketchRequest(AppendSketchRequest(nil, items)); err != nil {
		t.Fatalf("exact-fit shard rejected: %v", err)
	}
	if _, err := DecodeSketchRequest(payload[:10]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated shard request decoded")
	}
	// The by-reference form checks the fingerprint's width the same way.
	ref := []SketchItem{{D: 3, ByRef: true, Fp: a.Fingerprint(), Placed: true, J0: 5, NTotal: a.N + 2}}
	if _, err := DecodeSketchRequest(AppendSketchRequest(nil, ref)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overhanging by-ref shard decoded: %v", err)
	}
}

func TestShardResponseRoundtrip(t *testing.T) {
	ok := SketchResponse{
		Status: StatusOK,
		J0:     11,
		Stats:  core.Stats{Samples: 40, Flops: 80, SampleTime: 1200, Total: 9000, Steals: 2, Imbalance: 1.25},
		Ahat: dense.NewMatrixFrom(2, 3, []float64{
			1, -2, 3.5, 0, 0.25, -9,
		}),
	}
	bad := SketchResponse{Status: StatusOverloaded, Detail: "queue full"}
	for _, r := range []SketchResponse{ok, bad} {
		payload := AppendSketchResponse(nil, []SketchResponse{r})
		rs, err := DecodeSketchResponse(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", r.Status, err)
		}
		got := rs[0]
		if got.Status != r.Status || got.Detail != r.Detail || got.J0 != r.J0 {
			t.Fatalf("%v: fields mismatch: %+v vs %+v", r.Status, got, r)
		}
		if got.Stats.Samples != r.Stats.Samples || got.Stats.SampleTime != r.Stats.SampleTime ||
			got.Stats.Total != r.Stats.Total || got.Stats.Steals != r.Stats.Steals ||
			got.Stats.Imbalance != r.Stats.Imbalance {
			t.Fatalf("%v: stats mismatch: %+v vs %+v", r.Status, got.Stats, r.Stats)
		}
		if !bytes.Equal(AppendSketchResponse(nil, rs), payload) {
			t.Fatalf("%v: re-encode differs", r.Status)
		}
	}
	if err := bad.Err(); !errors.Is(err, StatusOverloaded.sentinel()) {
		t.Fatalf("shard overload does not unwrap: %v", err)
	}
}

// TestShardResponseErrorFormMatchesSketchResponse pins the one error form
// every answer shares: a response error item is byte-identical to the
// error payload of MsgMatrixInfo, so a status plus detail reads the same
// on every endpoint.
func TestShardResponseErrorFormMatchesSketchResponse(t *testing.T) {
	item := AppendSketchResponse(nil, []SketchResponse{{Status: StatusClosed, Detail: "draining"}})[4:]
	info := AppendMatrixInfo(nil, &MatrixInfo{Status: StatusClosed, Detail: "draining"})
	if !bytes.Equal(item, info) {
		t.Fatal("error forms diverged between sketch responses and matrix info")
	}
	got, err := DecodeMatrixInfo(item)
	if err != nil || got.Status != StatusClosed || got.Detail != "draining" {
		t.Fatalf("decode sketch error item as matrix info: %+v, %v", got, err)
	}
}

func TestShardRequestFrame(t *testing.T) {
	a := testCSCs()["uniform-200x40"]
	items := []SketchItem{{D: 4, A: a, Placed: true, NTotal: a.N}}
	frame, err := EncodeSketchRequestFrame(items)
	if err != nil {
		t.Fatal(err)
	}
	if got := SketchRequestWireSize(items); got != len(frame) {
		t.Fatalf("SketchRequestWireSize = %d, frame is %d bytes", got, len(frame))
	}
	typ, payload, rest, err := SplitFrame(frame, 0)
	if err != nil || typ != MsgSketchRequest || len(rest) != 0 {
		t.Fatalf("frame split: typ=%v rest=%d err=%v", typ, len(rest), err)
	}
	if _, err := DecodeSketchRequest(payload); err != nil {
		t.Fatal(err)
	}
}

// TestSketchRefWireSize pins the exported by-reference frame size to what
// the encoder actually produces for a one-item by-reference request: the
// O(1) request whatever nnz(A) is.
func TestSketchRefWireSize(t *testing.T) {
	fp := sparse.Fingerprint{M: 1 << 30, N: 1 << 20, NNZ: 1 << 34, Hash: 0xfeedface}
	frame, err := EncodeSketchRequestFrame([]SketchItem{{
		D: 64, Opts: core.Options{Dist: rng.SJLT, Sparsity: 4, Seed: 1}, ByRef: true, Fp: fp,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != SketchRefWireSize {
		t.Fatalf("by-ref frame is %d bytes, SketchRefWireSize says %d", len(frame), SketchRefWireSize)
	}
	if SketchRefWireSize != 137 {
		t.Fatalf("SketchRefWireSize = %d, want 137", SketchRefWireSize)
	}
}

func TestShardBatchRequestRoundtrip(t *testing.T) {
	shapes := testCSCs()
	a := shapes["uniform-200x40"]
	opts := core.Options{Dist: rng.Rademacher, Seed: 21}
	items := []SketchItem{
		{D: 6, Opts: opts, A: a, Placed: true, J0: 0, NTotal: 128},
		{D: 6, Opts: opts, A: a, Placed: true, J0: 40, NTotal: 128},
		{D: 6, Opts: opts, A: shapes["degenerate-0xn"], Placed: true, J0: 80, NTotal: 128},
	}
	roundtripRequest(t, "shard-batch", items)

	frame, err := EncodeSketchRequestFrame(items)
	if err != nil {
		t.Fatal(err)
	}
	if want := SketchRequestWireSize(items); want != len(frame) {
		t.Fatalf("SketchRequestWireSize = %d, frame is %d bytes", want, len(frame))
	}
	typ, fp, rest, err := SplitFrame(frame, 0)
	if err != nil || typ != MsgSketchRequest || len(rest) != 0 {
		t.Fatalf("frame split: typ=%v rest=%d err=%v", typ, len(rest), err)
	}
	if !bytes.Equal(fp, AppendSketchRequest(nil, items)) {
		t.Fatal("frame payload differs from raw payload")
	}
}

// TestShardBatchRequestRejections pins the cross-item placement
// invariants: placed items share one nTotal and are sorted by j0 with
// disjoint column ranges, and a frame does not mix placed and unplaced
// items. These are the wire-level face of the Accumulator's
// duplicate-coverage rejection — a frame that covers a column twice is
// unreachable past this decoder.
func TestShardBatchRequestRejections(t *testing.T) {
	a := testCSCs()["uniform-200x40"] // N = 40
	mk := func(j0, nTotal int) SketchItem {
		return SketchItem{D: 2, A: a, Placed: true, J0: j0, NTotal: nTotal}
	}
	cases := map[string][]SketchItem{
		"empty-batch":        {},
		"overlapping-ranges": {mk(0, 100), mk(39, 100)},
		"duplicate-j0":       {mk(0, 100), mk(0, 100)},
		"unsorted":           {mk(40, 100), mk(0, 100)},
		"mixed-ntotal":       {mk(0, 100), mk(40, 101)},
		"mixed-placement":    {mk(0, 100), {D: 2, A: a}},
	}
	for name, items := range cases {
		payload := AppendSketchRequest(nil, items)
		if _, err := DecodeSketchRequest(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded cleanly, want ErrMalformed (got %v)", name, err)
		}
	}
	// Adjacent shards tiling [0, n) exactly are the legal shape.
	if _, err := DecodeSketchRequest(AppendSketchRequest(nil, []SketchItem{mk(0, 80), mk(40, 80)})); err != nil {
		t.Fatalf("adjacent tiling rejected: %v", err)
	}
}

func TestShardBatchResponseRoundtrip(t *testing.T) {
	rs := []SketchResponse{
		{Status: StatusOK, J0: 0, Stats: core.Stats{Samples: 8, Flops: 16, Imbalance: 1.5},
			Ahat: dense.NewMatrixFrom(2, 2, []float64{1, -0.5, 0, 3})},
		{Status: StatusOverloaded, Detail: "queue full"},
		{Status: StatusOK, J0: 7, Ahat: dense.NewMatrix(2, 0)},
	}
	payload := AppendSketchResponse(nil, rs)
	got, err := DecodeSketchResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rs) {
		t.Fatalf("decoded %d items, want %d", len(got), len(rs))
	}
	for i := range got {
		if got[i].Status != rs[i].Status || got[i].Detail != rs[i].Detail || got[i].J0 != rs[i].J0 {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], rs[i])
		}
	}
	if !bytes.Equal(AppendSketchResponse(nil, got), payload) {
		t.Fatal("re-encode differs")
	}
	// A mixed outcome is not a shed request: the client must not resend it.
	if err := ShedError(payload); err != nil {
		t.Fatalf("ShedError(mixed) = %v, want nil", err)
	}
}

func TestSketchRefRoundtrip(t *testing.T) {
	it := SketchItem{
		D: 16,
		Opts: core.Options{
			Seed: 99, Dist: rng.SJLT, Source: rng.SourcePhilox,
			Sparsity: 4, BlockD: 8, Workers: 3,
		},
		ByRef: true,
		Fp:    sparse.Fingerprint{M: 4096, N: 512, NNZ: 81920, Hash: 0x1234567890abcdef},
	}
	payload := AppendSketchRequest(nil, []SketchItem{it})
	if len(payload) != SketchRefWireSize-HeaderSize {
		t.Fatalf("by-ref payload %d bytes, want %d (O(1) by construction)",
			len(payload), SketchRefWireSize-HeaderSize)
	}
	got := roundtripRequest(t, "byref", []SketchItem{it})
	if got[0].Fp != it.Fp || got[0].A != nil {
		t.Fatalf("roundtrip %+v != %+v", got[0], it)
	}
	// Truncated fingerprint: exact length is enforced.
	if _, err := DecodeSketchRequest(payload[:len(payload)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated sketch-ref must be ErrMalformed, got %v", err)
	}
	// Domain guards run on the shared options block: an out-of-domain
	// distribution is rejected exactly like an inline request's.
	bad := it
	bad.Opts.Dist = rng.CountSketch + 1
	if _, err := DecodeSketchRequest(AppendSketchRequest(nil, []SketchItem{bad})); !errors.Is(err, ErrMalformed) {
		t.Fatalf("out-of-domain dist must be ErrMalformed, got %v", err)
	}
}

// TestRequestDecodeReuse pins the pooled decode the server's one-item
// inline path relies on: decoding into a slot that already holds a CSC
// reuses its slices.
func TestRequestDecodeReuse(t *testing.T) {
	big := sparse.RandomUniform(500, 60, 0.1, 1)
	small := sparse.RandomUniform(50, 6, 0.1, 2)
	items, err := DecodeSketchRequestInto(nil, AppendSketchRequest(nil, []SketchItem{{D: 3, A: big}}))
	if err != nil {
		t.Fatal(err)
	}
	ptrBefore := &items[0].A.Val[0]
	items, err = DecodeSketchRequestInto(items, AppendSketchRequest(nil, []SketchItem{{D: 3, A: small}}))
	if err != nil {
		t.Fatal(err)
	}
	if &items[0].A.Val[0] != ptrBefore {
		t.Error("DecodeSketchRequestInto reallocated despite sufficient capacity")
	}
	if items[0].A.Fingerprint() != small.Fingerprint() {
		t.Error("reused decode changed the matrix")
	}
}
