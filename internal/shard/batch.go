package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sketchsp/internal/wire"
)

// Per-peer batch fan-out: shards of one request whose primary candidate is
// the same peer ride a single sketch request of placed items instead of
// one HTTP call each, collapsing N-shards-on-K-peers from N round trips to
// K. The batch is a transport optimisation only — each shard still
// resolves independently through runShard, so hedging and failover treat
// a batch-borne shard exactly like a direct one: a batch-level failure (or
// a per-item error) sends just the affected shards to their backup peers
// as ordinary single-shard RPCs. The fleet runs one wire version, so a
// batch-level StatusMalformed means what it means on a single shard — our
// request is bad — and fails fast like one.

// batchCall is one in-flight batch RPC shared by the runShard goroutines
// of its member shards. resps is index-aligned with the request slice and
// valid only after done is closed; pending counts members still waiting,
// and the last one out cancels the RPC context.
type batchCall struct {
	p       *peer
	done    chan struct{}
	resps   []wire.SketchResponse
	err     error
	pending atomic.Int32
	cancel  context.CancelFunc
}

// launchBatch issues one request of placed items to p. Metrics for the
// frame — one peer request, one batch, len(items) subrequests, the wire
// bytes and the batch-size observation — are counted here exactly once;
// runShard counts nothing for a batch-borne primary attempt.
func (c *Coordinator) launchBatch(ctx context.Context, p *peer, items []wire.SketchItem) *batchCall {
	bctx, cancel := context.WithCancel(ctx)
	bc := &batchCall{p: p, done: make(chan struct{}), cancel: cancel}
	bc.pending.Store(int32(len(items)))
	c.met.batches.Inc()
	c.met.batchSize.ObserveValue(int64(len(items)))
	c.met.subrequests.Add(int64(len(items)))
	p.met.requests.Inc()
	p.met.bytes.Add(int64(wire.SketchRequestWireSize(items)))
	go func() {
		defer close(bc.done)
		start := time.Now()
		resps, err := p.cli.Do(bctx, items)
		if err != nil {
			bc.err = err
			return
		}
		p.lat.Record(time.Since(start))
		bc.resps = resps
	}()
	return bc
}

// wait blocks until the batch resolves (or ctx does) and extracts member
// idx's outcome. Per-item errors keep their status chain so runShard's
// failFast classification is identical to the single-shard path; a wrong
// J0 echo is a peer-health failure (failover re-asks a backup — and even
// if it slipped through, place() rejects misplacement again upstream).
func (bc *batchCall) wait(ctx context.Context, idx int, sh *Shard) (*wire.SketchResponse, error) {
	defer bc.release()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-bc.done:
	}
	if bc.err != nil {
		return nil, bc.err
	}
	resp := &bc.resps[idx]
	if err := resp.Err(); err != nil {
		return nil, err
	}
	if resp.J0 != sh.J0 {
		return nil, fmt.Errorf("shard: batch item echoes j0=%d for shard [%d:%d)", resp.J0, sh.J0, sh.J1)
	}
	return resp, nil
}

// release retires one member's interest; the last release cancels the RPC
// so an abandoned batch (every member hedged away or failed over) stops
// burning the peer.
func (bc *batchCall) release() {
	if bc.pending.Add(-1) == 0 {
		bc.cancel()
	}
}
