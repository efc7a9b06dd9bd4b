// Package obs is the process-wide telemetry subsystem: a metrics
// registry (counters, gauges, fixed-bucket latency histograms) rendered
// in the Prometheus text exposition format, context-propagated span
// tracing recorded into bounded lock-free ring buffers with a slow-op
// log. Only the standard library is used; structured logs go through
// log/slog.
//
// The two pieces compose but do not require each other: the server
// registers its request metrics and the datastore's counters in one
// Registry behind GET /metrics, threads a Trace through each request's
// context so datastore spans (batch commit, WAL flush, filter and
// materialize phases) land in the request's span tree. A library caller
// that passes context.Background() pays only one context lookup per
// instrumented operation — no span is recorded and no allocation
// happens without a Trace in the context.
package obs
