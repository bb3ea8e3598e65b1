package wire

import (
	"fmt"
	"math"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// The sketch messages carry every way of asking for Â = S·A — one sketch
// or many, inline matrix or stored fingerprint, whole matrix or one column
// shard of a larger one — in one request shape and one response shape.
//
// Sketch request (MsgSketchRequest):
//
//	u32 count | count × item
//	item:  u64 d | options block (optsWireSize bytes, flag byte last) |
//	       u64 j0 | u64 nTotal                 only if flagPlaced
//	       CSC payload                         if flagByRef is clear
//	       u64 m | u64 n | u64 nnz | u64 hash  if flagByRef is set
//
// Items carry no length prefix: the options block is fixed-size and the
// matrix is self-delimiting (a CSC head fixes its length, a fingerprint is
// 32 bytes). A placed item is the column shard [j0, j0+n) of a matrix with
// nTotal columns; j0+n ≤ nTotal is enforced per item. Items of one frame
// are either all placed or none, and placed items share nTotal and are
// sorted by j0 with disjoint column ranges — a frame that covers a column
// twice encodes no honest request, so the coordinator's duplicate-coverage
// rejection is unreachable from the network. A request has at least one
// item.
//
// Sketch response (MsgSketchResponse), index-aligned with the request:
//
//	u32 count | count × item
//	item:  u8 status
//	       status == StatusOK:  u64 j0 | i64 samples | i64 flops |
//	                            i64 sampleNS | i64 convertNS | i64 totalNS |
//	                            i64 steals | f64 imbalance | dense payload
//	       status != StatusOK:  u32 detailLen | detailLen bytes of detail
//
// j0 echoes the item's placement (0 for unplaced items). A failure that
// hits the whole frame — bytes that do not decode, a bad deadline header —
// is answered with a one-item response carrying that failure.

// Item flag bits, carried in the options block's flag byte next to the
// TuneBlockN option bit (bit 1). Bit 0 is retired: decoders reject it.
const (
	flagByRef  byte = 4 // the item names its matrix by fingerprint
	flagPlaced byte = 8 // the item is a column shard at (j0, nTotal)
)

// SketchItem is one sketch of a MsgSketchRequest: Â = S·A, where S is
// described by (D, Opts) and regenerated server-side — the matrix S itself
// never crosses the wire.
type SketchItem struct {
	D    int
	Opts core.Options
	// ByRef selects the matrix form: false ships A inline, true names a
	// matrix already in the server's store by Fp.
	ByRef bool
	A     *sparse.CSC
	Fp    sparse.Fingerprint
	// Placed marks the item as the column shard [J0, J0+n) of a matrix
	// with NTotal columns; the response echoes J0.
	Placed     bool
	J0, NTotal int
}

// Cols is the column count of the item's matrix: the width of its Â.
func (it *SketchItem) Cols() int {
	if it.ByRef {
		return it.Fp.N
	}
	return it.A.N
}

// SketchResponse is one item of a MsgSketchResponse. A non-OK Status
// carries only Detail; StatusOK carries Â, the J0 echo of the item's
// placement, and the execute Stats (WorkerBusy, a plan-owned buffer, does
// not cross the wire).
type SketchResponse struct {
	Status Status
	Detail string
	J0     int
	Stats  core.Stats
	Ahat   *dense.Matrix
}

// Err converts the response outcome into an error (nil for StatusOK),
// unwrapping to the canonical sentinel of the status.
func (r *SketchResponse) Err() error { return r.Status.Err(r.Detail) }

// fingerprintWireSize is the encoded size of a sparse.Fingerprint:
// m, n, nnz, hash as four u64 words.
const fingerprintWireSize = 4 * 8

// SketchRefWireSize is the size of a complete one-item by-reference
// request frame: header, count, d and options, fingerprint — independent
// of nnz(A). The coordinator's traffic accounting and the bench replay
// both quote it.
const SketchRefWireSize = HeaderSize + 4 + requestFixedSize + fingerprintWireSize

func itemSize(it *SketchItem) int {
	n := requestFixedSize
	if it.Placed {
		n += 16
	}
	if it.ByRef {
		return n + fingerprintWireSize
	}
	return n + cscPayloadSize(it.A)
}

// AppendSketchRequest appends the request payload for items to dst. The
// encoder does not check the placement invariants — tests encode broken
// frames on purpose to pin the decoder's rejections — but every frame the
// coordinator builds satisfies them by construction (shards tile [0, n)).
func AppendSketchRequest(dst []byte, items []SketchItem) []byte {
	dst = appendU32(dst, uint32(len(items)))
	for i := range items {
		it := &items[i]
		var flags byte
		if it.ByRef {
			flags |= flagByRef
		}
		if it.Placed {
			flags |= flagPlaced
		}
		dst = appendU64(dst, uint64(it.D))
		dst = appendSketchOpts(dst, it.Opts, flags)
		if it.Placed {
			dst = appendU64(dst, uint64(it.J0))
			dst = appendU64(dst, uint64(it.NTotal))
		}
		if it.ByRef {
			dst = appendFingerprint(dst, it.Fp)
		} else {
			dst = AppendCSC(dst, it.A)
		}
	}
	return dst
}

// SketchRequestWireSize returns the exact frame size of a request for
// items — header plus payload — without encoding, so byte metering costs
// no second serialization.
func SketchRequestWireSize(items []SketchItem) int {
	size := HeaderSize + 4
	for i := range items {
		size += itemSize(&items[i])
	}
	return size
}

// EncodeSketchRequestFrame returns a complete request frame for items,
// ready for an HTTP body. A request too large for the 32-bit frame length
// fails with ErrTooLarge.
func EncodeSketchRequestFrame(items []SketchItem) ([]byte, error) {
	size := SketchRequestWireSize(items)
	payload := AppendSketchRequest(make([]byte, 0, size-HeaderSize), items)
	return AppendFrame(make([]byte, 0, size), MsgSketchRequest, payload)
}

// DecodeSketchRequest decodes a request payload, allocating every matrix.
func DecodeSketchRequest(payload []byte) ([]SketchItem, error) {
	return DecodeSketchRequestInto(nil, payload)
}

// DecodeSketchRequestInto decodes a request payload into dst's backing
// array and returns the items. An inline item decodes into the CSC its
// slot already holds, reusing that matrix's slice capacity — the server's
// pooled hot path.
func DecodeSketchRequestInto(dst []SketchItem, payload []byte) ([]SketchItem, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: sketch request %d bytes, want >= 4", ErrMalformed, len(payload))
	}
	count := uint64(getU32(payload))
	rest := payload[4:]
	if count == 0 {
		return nil, fmt.Errorf("%w: sketch request has no items", ErrMalformed)
	}
	// Every item holds at least d and the options block, so the count is
	// bounded by the payload before anything is allocated.
	if count > uint64(len(rest)/requestFixedSize) {
		return nil, fmt.Errorf("%w: sketch request count %d inconsistent with %d payload bytes", ErrMalformed, count, len(rest))
	}
	if uint64(cap(dst)) < count {
		dst = append(dst[:cap(dst)], make([]SketchItem, int(count)-cap(dst))...)
	}
	items := dst[:count]
	for i := range items {
		n, err := decodeItem(&items[i], rest)
		if err != nil {
			return nil, fmt.Errorf("sketch item %d: %w", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after sketch request", ErrMalformed, len(rest))
	}
	nextJ0 := 0
	for i := range items {
		it := &items[i]
		if it.Placed != items[0].Placed {
			return nil, fmt.Errorf("%w: sketch request mixes placed and unplaced items", ErrMalformed)
		}
		if !it.Placed {
			continue
		}
		if it.NTotal != items[0].NTotal {
			return nil, fmt.Errorf("%w: sketch item %d names nTotal %d, item 0 named %d", ErrMalformed, i, it.NTotal, items[0].NTotal)
		}
		if it.J0 < nextJ0 {
			return nil, fmt.Errorf("%w: sketch item %d range [%d:%d) overlaps or precedes prior end %d", ErrMalformed, i, it.J0, it.J0+it.Cols(), nextJ0)
		}
		nextJ0 = it.J0 + it.Cols()
	}
	return items, nil
}

// decodeItem decodes the request item at the start of b into it and
// returns the item's encoded length.
func decodeItem(it *SketchItem, b []byte) (int, error) {
	if len(b) < requestFixedSize {
		return 0, fmt.Errorf("%w: item %d bytes, want >= %d", ErrMalformed, len(b), requestFixedSize)
	}
	d := getU64(b)
	if d > MaxDim {
		return 0, fmt.Errorf("%w: sketch size %d exceeds MaxDim", ErrMalformed, d)
	}
	opts, flags, err := decodeSketchOpts(b[8:], flagByRef|flagPlaced)
	if err != nil {
		return 0, err
	}
	it.D, it.Opts = int(d), opts
	it.ByRef = flags&flagByRef != 0
	it.Placed = flags&flagPlaced != 0
	it.J0, it.NTotal = 0, 0
	off := requestFixedSize
	var j0, nTotal uint64
	if it.Placed {
		if len(b) < off+16 {
			return 0, fmt.Errorf("%w: truncated item placement", ErrMalformed)
		}
		j0, nTotal = getU64(b[off:]), getU64(b[off+8:])
		if j0 > MaxDim || nTotal > MaxDim {
			return 0, fmt.Errorf("%w: placement j0=%d nTotal=%d exceeds MaxDim", ErrMalformed, j0, nTotal)
		}
		off += 16
	}
	if it.ByRef {
		if len(b) < off+fingerprintWireSize {
			return 0, fmt.Errorf("%w: truncated item fingerprint", ErrMalformed)
		}
		fp, err := decodeFingerprint(b[off:])
		if err != nil {
			return 0, err
		}
		it.A, it.Fp = nil, fp
		off += fingerprintWireSize
	} else {
		size, err := cscSize(b[off:])
		if err != nil {
			return 0, err
		}
		if it.A == nil {
			it.A = new(sparse.CSC)
		}
		if err := DecodeCSCInto(it.A, b[off:off+size]); err != nil {
			return 0, err
		}
		it.Fp = sparse.Fingerprint{}
		off += size
	}
	if it.Placed {
		if j0+uint64(it.Cols()) > nTotal {
			return 0, fmt.Errorf("%w: shard [%d:%d) exceeds nTotal %d", ErrMalformed, j0, j0+uint64(it.Cols()), nTotal)
		}
		it.J0, it.NTotal = int(j0), int(nTotal)
	}
	return off, nil
}

// responseStatsSize is the OK item's fixed head after the status byte:
// j0, six integer stats, imbalance.
const responseStatsSize = 8 + 6*8 + 8

// AppendSketchResponse appends the response payload for rs to dst.
func AppendSketchResponse(dst []byte, rs []SketchResponse) []byte {
	dst = appendU32(dst, uint32(len(rs)))
	for i := range rs {
		r := &rs[i]
		dst = append(dst, byte(r.Status))
		if r.Status != StatusOK {
			dst = appendU32(dst, uint32(len(r.Detail)))
			dst = append(dst, r.Detail...)
			continue
		}
		dst = appendU64(dst, uint64(r.J0))
		dst = appendU64(dst, uint64(r.Stats.Samples))
		dst = appendU64(dst, uint64(r.Stats.Flops))
		dst = appendU64(dst, uint64(r.Stats.SampleTime.Nanoseconds()))
		dst = appendU64(dst, uint64(r.Stats.ConvertTime.Nanoseconds()))
		dst = appendU64(dst, uint64(r.Stats.Total.Nanoseconds()))
		dst = appendU64(dst, uint64(r.Stats.Steals))
		dst = appendU64(dst, math.Float64bits(r.Stats.Imbalance))
		dst = AppendDense(dst, r.Ahat)
	}
	return dst
}

// DecodeSketchResponse decodes a response payload.
func DecodeSketchResponse(payload []byte) ([]SketchResponse, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: sketch response %d bytes, want >= 4", ErrMalformed, len(payload))
	}
	count := uint64(getU32(payload))
	rest := payload[4:]
	// Each item costs at least a status byte and a 4-byte detail length.
	if count > uint64(len(rest)/5) {
		return nil, fmt.Errorf("%w: sketch response count %d inconsistent with %d payload bytes", ErrMalformed, count, len(rest))
	}
	rs := make([]SketchResponse, count)
	for i := range rs {
		n, err := decodeResponseItem(&rs[i], rest)
		if err != nil {
			return nil, fmt.Errorf("sketch response item %d: %w", i, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after sketch response", ErrMalformed, len(rest))
	}
	return rs, nil
}

// decodeResponseItem decodes the response item at the start of b into r
// and returns the item's encoded length.
func decodeResponseItem(r *SketchResponse, b []byte) (int, error) {
	if len(b) < 1 {
		return 0, fmt.Errorf("%w: empty response item", ErrMalformed)
	}
	st := Status(b[0])
	if st > maxStatus {
		return 0, fmt.Errorf("%w: unknown status %d", ErrMalformed, b[0])
	}
	r.Status = st
	if st != StatusOK {
		if len(b) < 5 {
			return 0, fmt.Errorf("%w: truncated error item", ErrMalformed)
		}
		n := uint64(getU32(b[1:5]))
		if uint64(len(b)-5) < n {
			return 0, fmt.Errorf("%w: error detail claims %d of %d bytes", ErrMalformed, n, len(b)-5)
		}
		r.Detail = string(b[5 : 5+n])
		return 5 + int(n), nil
	}
	if len(b) < 1+responseStatsSize {
		return 0, fmt.Errorf("%w: truncated response stats", ErrMalformed)
	}
	j0 := getU64(b[1:])
	samples := int64(getU64(b[9:]))
	flops := int64(getU64(b[17:]))
	sampleNS := int64(getU64(b[25:]))
	convertNS := int64(getU64(b[33:]))
	totalNS := int64(getU64(b[41:]))
	steals := int64(getU64(b[49:]))
	imb := math.Float64frombits(getU64(b[57:]))
	if j0 > MaxDim {
		return 0, fmt.Errorf("%w: response j0 %d exceeds MaxDim", ErrMalformed, j0)
	}
	if samples < 0 || flops < 0 || sampleNS < 0 || convertNS < 0 || totalNS < 0 || steals < 0 {
		return 0, fmt.Errorf("%w: negative response stats", ErrMalformed)
	}
	if math.IsNaN(imb) || math.IsInf(imb, 0) || imb < 0 {
		return 0, fmt.Errorf("%w: non-finite or negative imbalance", ErrMalformed)
	}
	r.J0 = int(j0)
	r.Stats = core.Stats{
		Samples:     samples,
		Flops:       flops,
		SampleTime:  time.Duration(sampleNS),
		ConvertTime: time.Duration(convertNS),
		Total:       time.Duration(totalNS),
		Steals:      steals,
		Imbalance:   imb,
	}
	off := 1 + responseStatsSize
	size, err := denseSize(b[off:])
	if err != nil {
		return 0, err
	}
	r.Ahat = new(dense.Matrix)
	if err := DecodeDenseInto(r.Ahat, b[off:off+size]); err != nil {
		return 0, err
	}
	return off + size, nil
}

// ShedError returns the failure of a response payload whose every item
// failed with a retryable status — the server shed the whole request, so
// the whole request may be resent — and nil otherwise, including for a
// payload that does not parse (the caller's full decode reports that).
// Only error items are read: the walk stops at the first non-retryable
// status, so the client's retry loop never decodes an Â it then decodes
// again.
func ShedError(payload []byte) error {
	if len(payload) < 4 {
		return nil
	}
	count := getU32(payload)
	rest := payload[4:]
	var first error
	for i := uint32(0); i < count; i++ {
		if len(rest) < 5 || !Status(rest[0]).Retryable() {
			return nil
		}
		n := uint64(getU32(rest[1:5]))
		if uint64(len(rest)-5) < n {
			return nil
		}
		if first == nil {
			first = Status(rest[0]).Err(string(rest[5 : 5+n]))
		}
		rest = rest[5+n:]
	}
	return first
}
