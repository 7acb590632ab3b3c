package telemetry

// Sink receives ended spans. Implementations must be safe for concurrent
// use; OnSpanEnd runs on whatever goroutine ended the span, so it should
// return quickly (queue or drop under load rather than block dispatch).
type Sink interface {
	OnSpanEnd(SpanData)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(SpanData)

// OnSpanEnd implements Sink.
func (f SinkFunc) OnSpanEnd(d SpanData) { f(d) }
