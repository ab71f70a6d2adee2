package target

import "goofi/internal/obsv"

// Provenance context plumbing. The campaign runner stamps the attempt in
// flight onto the target stack before every attempt (ApplyTraceContext), the
// wrappers store and forward it inward, and fault-injecting layers (Flaky)
// or instrumented layers (Measured) attribute the wide events they emit to
// that attempt. Like SetWorkerID, the capability is runner-to-wrapper
// plumbing rather than an Operations method, so it is a dynamic probe:
// interface embedding does not promote it, and every wrapper forwards it
// explicitly.

// TraceContextSetter is the probe the runner uses to hand the current
// attempt's provenance context to the target stack.
type TraceContextSetter interface {
	SetTraceContext(obsv.TraceContext)
}

// TraceContextCarrier exposes the provenance context travelling with a
// target, so code holding only the Operations interface (the injection
// algorithms) can attribute events to the attempt in flight.
type TraceContextCarrier interface {
	ObsvTraceContext() obsv.TraceContext
}

// ApplyTraceContext hands tc to ops when it accepts provenance context; a
// bare target without the capability is left alone.
func ApplyTraceContext(ops Operations, tc obsv.TraceContext) {
	if s, ok := ops.(TraceContextSetter); ok {
		s.SetTraceContext(tc)
	}
}

// TraceContextOf returns the provenance context travelling with ops, or the
// zero (disabled) context.
func TraceContextOf(ops Operations) obsv.TraceContext {
	if c, ok := ops.(TraceContextCarrier); ok {
		return c.ObsvTraceContext()
	}
	return obsv.TraceContext{}
}
