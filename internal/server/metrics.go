package server

import (
	"strconv"

	"sketchsp/internal/obs"
)

// httpCodes are the statuses the sketch endpoint can actually emit (see
// httpStatus plus the 405 guard); anything else lands in the "other" series
// so the per-code family stays fixed-cardinality no matter what a proxy or
// future handler does.
var httpCodes = [...]int{200, 400, 405, 429, 499, 500, 503, 504}

// httpMetrics is the transport layer's metric set on the shared registry.
// Like the service metrics, these handles are the single home of the
// counters /metrics scrapes.
type httpMetrics struct {
	requests    *obs.Counter
	badRequests *obs.Counter
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter

	byCode    map[int]*obs.Counter // responses per HTTP status
	codeOther *obs.Counter

	decode  *obs.Histogram // body read + frame split + payload decode
	execute *obs.Histogram // service call (admission + cache + kernel)
	encode  *obs.Histogram // response encode + frame write
}

func newHTTPMetrics(r *obs.Registry) *httpMetrics {
	m := &httpMetrics{
		requests: r.Counter("sketchsp_http_requests_total",
			"Sketch requests received (batch items count individually)."),
		badRequests: r.Counter("sketchsp_http_bad_requests_total",
			"Request bodies rejected before reaching the service."),
		bytesIn: r.Counter("sketchsp_http_request_bytes_total",
			"Request body bytes consumed."),
		bytesOut: r.Counter("sketchsp_http_response_bytes_total",
			"Response body bytes written."),
		byCode: make(map[int]*obs.Counter, len(httpCodes)),
		codeOther: r.LabeledCounter("sketchsp_http_responses_total",
			`code="other"`, "Responses written to the sketch endpoint, by HTTP status."),
		decode: r.Histogram("sketchsp_http_decode_seconds",
			"Request decode stage: body read, frame split, payload decode."),
		execute: r.Histogram("sketchsp_http_execute_seconds",
			"Service execute stage: admission, plan cache, kernel."),
		encode: r.Histogram("sketchsp_http_encode_seconds",
			"Response encode stage: payload append, frame, write."),
	}
	for _, c := range httpCodes {
		m.byCode[c] = r.LabeledCounter("sketchsp_http_responses_total",
			`code="`+strconv.Itoa(c)+`"`,
			"Responses written to the sketch endpoint, by HTTP status.")
	}
	return m
}

// countCode attributes one response to its HTTP status series. Map lookup
// on a pre-built fixed map: no allocation on the hot path.
func (m *httpMetrics) countCode(code int) {
	if c, ok := m.byCode[code]; ok {
		c.Inc()
		return
	}
	m.codeOther.Inc()
}
