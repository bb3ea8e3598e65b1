package wire

import (
	"bytes"
	"errors"
	"testing"

	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

func refTestMatrix(t *testing.T) *sparse.CSC {
	t.Helper()
	a, err := sparse.NewCSC(5, 4,
		[]int{0, 2, 2, 3, 5},
		[]int{0, 3, 2, 1, 4},
		[]float64{1.5, -2, 3, 0.25, -0})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMatrixPutRoundtrip(t *testing.T) {
	a := refTestMatrix(t)
	payload := AppendMatrixPut(nil, a)
	got, err := DecodeMatrixPut(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != a.Fingerprint() {
		t.Fatal("matrix-put roundtrip changed the matrix")
	}
	if !bytes.Equal(AppendMatrixPut(nil, got), payload) {
		t.Fatal("matrix-put re-encode differs")
	}
}

func TestMatrixInfoRoundtrip(t *testing.T) {
	for _, r := range []MatrixInfo{
		{Status: StatusOK, Fp: sparse.Fingerprint{M: 9, N: 4, NNZ: 7, Hash: 0xdeadbeefcafef00d}, Bytes: 312, Created: true},
		{Status: StatusOK, Fp: sparse.Fingerprint{}, Bytes: 0, Created: false},
		{Status: StatusNotFound, Detail: "no such matrix"},
		{Status: StatusInvalidMatrix, Detail: ""},
	} {
		payload := AppendMatrixInfo(nil, &r)
		got, err := DecodeMatrixInfo(payload)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if *got != r {
			t.Fatalf("roundtrip %+v != %+v", *got, r)
		}
		if !bytes.Equal(AppendMatrixInfo(nil, got), payload) {
			t.Fatalf("matrix-info re-encode differs for %+v", r)
		}
	}
}

func TestMatrixInfoRejectsBadCreatedFlag(t *testing.T) {
	r := MatrixInfo{Status: StatusOK, Fp: sparse.Fingerprint{M: 1, N: 1, NNZ: 1, Hash: 5}, Bytes: 24}
	payload := AppendMatrixInfo(nil, &r)
	payload[len(payload)-1] = 2
	if _, err := DecodeMatrixInfo(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("created flag 2 must be ErrMalformed, got %v", err)
	}
}

func TestMatrixDeltaRoundtrip(t *testing.T) {
	delta := refTestMatrix(t)
	base := sparse.Fingerprint{M: delta.M, N: delta.N, NNZ: 3, Hash: 77}
	r := MatrixDelta{Fp: base, Delta: delta}
	payload := AppendMatrixDelta(nil, &r)
	got, err := DecodeMatrixDelta(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fp != base || got.Delta.Fingerprint() != delta.Fingerprint() {
		t.Fatal("matrix-delta roundtrip mismatch")
	}
	if !bytes.Equal(AppendMatrixDelta(nil, got), payload) {
		t.Fatal("matrix-delta re-encode differs")
	}
	// The delta's shape must match the base fingerprint it addresses.
	wrong := MatrixDelta{Fp: sparse.Fingerprint{M: delta.M + 1, N: delta.N, NNZ: 3, Hash: 77}, Delta: delta}
	if _, err := DecodeMatrixDelta(AppendMatrixDelta(nil, &wrong)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("shape-mismatched delta must be ErrMalformed, got %v", err)
	}
}

func TestStatusNotFoundTaxonomy(t *testing.T) {
	if got := StatusOf(store.ErrNotFound); got != StatusNotFound {
		t.Fatalf("StatusOf(store.ErrNotFound) = %v, want StatusNotFound", got)
	}
	err := StatusNotFound.Err("gone")
	if !errors.Is(err, store.ErrNotFound) {
		t.Fatal("StatusNotFound must unwrap to store.ErrNotFound across the network")
	}
	if StatusNotFound.Retryable() {
		t.Fatal("StatusNotFound must not be blindly retryable (the cure is an upload, not a resend)")
	}
	// The not-found error form survives a response roundtrip.
	payload := AppendSketchResponse(nil, []SketchResponse{{Status: StatusNotFound, Detail: "x"}})
	rs, derr := DecodeSketchResponse(payload)
	if derr != nil {
		t.Fatal(derr)
	}
	if !errors.Is(rs[0].Err(), store.ErrNotFound) {
		t.Fatal("decoded not-found response must unwrap to store.ErrNotFound")
	}
}

func TestFingerprintFormatParse(t *testing.T) {
	fp := sparse.Fingerprint{M: 4096, N: 512, NNZ: 81920, Hash: 0x00c0ffee00c0ffee}
	s := FormatFingerprint(fp)
	got, err := ParseFingerprint(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatalf("parse(format(fp)) = %+v, want %+v", got, fp)
	}
	for _, bad := range []string{
		"", "1-2-3", "1-2-3-4-5", "a-2-3-00c0ffee00c0ffee",
		"1-2-3-xyz", "1-2-3-ff", "-1-2-3-00c0ffee00c0ffee",
		"1-2-3-00c0ffee00c0ffe", // 15 hex digits
	} {
		if _, err := ParseFingerprint(bad); !errors.Is(err, ErrMalformed) {
			t.Fatalf("ParseFingerprint(%q) = %v, want ErrMalformed", bad, err)
		}
	}
}
