package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- flight recorder ---

func TestRecorderKeepsAllErrors(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 64})
	for i := 0; i < 50; i++ {
		r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: time.Millisecond}, errors.New("boom"))
	}
	recs := r.Snapshot()
	if len(recs) != 50 {
		t.Fatalf("kept %d error records, want all 50", len(recs))
	}
	for _, rec := range recs {
		if rec.Reason != KeepError {
			t.Fatalf("error record kept with reason %q, want %q", rec.Reason, KeepError)
		}
		if rec.Err != "boom" || rec.ErrClass != ClassError {
			t.Fatalf("record error fields = (%q, %q), want (boom, error)", rec.Err, rec.ErrClass)
		}
	}
	st := r.Stats()
	if st.Seen != 50 || st.Kept != 50 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want seen=kept=50 dropped=0", st)
	}
}

func TestRecorderKeepsPreclassifiedFaults(t *testing.T) {
	// A server dispatch that answered with a fault envelope has err == nil
	// but a caller-stamped ErrClass; it must count as a failure.
	r := NewRecorder(RecorderOptions{Capacity: 8})
	r.Record(CallRecord{Service: "Echo", Dir: DirServer, ErrClass: ClassFault}, nil)
	recs := r.Query(RecordFilter{ErrorsOnly: true})
	if len(recs) != 1 || recs[0].Reason != KeepError {
		t.Fatalf("preclassified fault not kept as error: %+v", recs)
	}
}

func TestRecorderSamplesSuccesses(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 4096, SuccessOneIn: 16})
	const total = 4000
	for i := 0; i < total; i++ {
		r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: time.Millisecond}, nil)
	}
	st := r.Stats()
	if st.Seen != total {
		t.Fatalf("seen = %d, want %d", st.Seen, total)
	}
	// Roughly 1/16 kept: allow a generous band around 250.
	if st.Kept < 100 || st.Kept > 600 {
		t.Fatalf("kept %d of %d uniform successes, want roughly 1 in 16", st.Kept, total)
	}
	for _, rec := range r.Snapshot() {
		if rec.Reason != KeepSampled && rec.Reason != KeepSlow {
			t.Fatalf("success kept with reason %q", rec.Reason)
		}
	}
}

func TestRecorderSuccessOneInOneKeepsEverything(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 128, SuccessOneIn: 1})
	for i := 0; i < 100; i++ {
		r.Record(CallRecord{Service: "Echo", Dir: DirClient}, nil)
	}
	if st := r.Stats(); st.Kept != 100 {
		t.Fatalf("kept = %d with SuccessOneIn=1, want 100", st.Kept)
	}
}

func TestRecorderKeepsSlowCalls(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 4096, SuccessOneIn: 1 << 30})
	// Feed enough fast calls to trigger a p99 recalculation, then a
	// straggler far beyond the threshold.
	for i := 0; i < slowRecalcEvery; i++ {
		r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: 50 * time.Microsecond}, nil)
	}
	if r.Stats().SlowThreshold <= 0 {
		t.Fatalf("slow threshold not established after %d calls", slowRecalcEvery)
	}
	r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: 5 * time.Second}, nil)
	recs := r.Query(RecordFilter{MinLatency: time.Second})
	if len(recs) != 1 || recs[0].Reason != KeepSlow {
		t.Fatalf("straggler not kept as slow: %+v", recs)
	}
}

func TestRecorderQueryFilters(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 64, SuccessOneIn: 1})
	r.Record(CallRecord{Service: "A", Dir: DirClient, TraceID: 0xabc, Latency: time.Millisecond}, nil)
	r.Record(CallRecord{Service: "B", Dir: DirServer, TraceID: 0xdef, Latency: 10 * time.Millisecond}, errors.New("x"))
	r.Record(CallRecord{Service: "A", Dir: DirServer, TraceID: 0xabc, Latency: 100 * time.Millisecond}, nil)

	if got := r.Query(RecordFilter{Service: "A"}); len(got) != 2 {
		t.Fatalf("service filter: got %d, want 2", len(got))
	}
	if got := r.Query(RecordFilter{Dir: DirServer}); len(got) != 2 {
		t.Fatalf("dir filter: got %d, want 2", len(got))
	}
	if got := r.Query(RecordFilter{ErrorsOnly: true}); len(got) != 1 || got[0].Service != "B" {
		t.Fatalf("errors filter: got %+v", got)
	}
	if got := r.Query(RecordFilter{TraceID: 0xabc}); len(got) != 2 {
		t.Fatalf("trace filter: got %d, want 2", len(got))
	}
	if got := r.Query(RecordFilter{MinLatency: 50 * time.Millisecond}); len(got) != 1 {
		t.Fatalf("latency filter: got %d, want 1", len(got))
	}
	if got := r.Query(RecordFilter{Limit: 2}); len(got) != 2 || got[1].Latency != 100*time.Millisecond {
		t.Fatalf("limit filter should keep the most recent 2: %+v", got)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 4, SuccessOneIn: 1})
	for i := 0; i < 10; i++ {
		r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: time.Duration(i)}, nil)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Latency != time.Duration(6+i) {
			t.Fatalf("wrapped ring out of order: %+v", recs)
		}
	}
}

func TestRecorderSchemeDerivation(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 8, SuccessOneIn: 1})
	r.Record(CallRecord{Service: "A", Dir: DirClient, Endpoint: "httpg://h:1/svc"}, nil)
	r.Record(CallRecord{Service: "A", Dir: DirClient, Endpoint: "no-scheme"}, nil)
	recs := r.Snapshot()
	if recs[0].Scheme != "httpg" || recs[1].Scheme != "" {
		t.Fatalf("scheme derivation: %q, %q", recs[0].Scheme, recs[1].Scheme)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(CallRecord{}, nil) // must not panic
	if r.Stats() != (RecorderStats{}) || r.Snapshot() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestRecorderSampledOutAllocsFree(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 64, SuccessOneIn: 1 << 30})
	rec := CallRecord{Service: "Echo", Dir: DirClient, Latency: time.Millisecond}
	// Warm the threshold machinery first.
	for i := 0; i < slowRecalcEvery; i++ {
		r.Record(rec, nil)
	}
	allocs := testing.AllocsPerRun(200, func() { r.Record(rec, nil) })
	if allocs != 0 {
		t.Fatalf("sampled-out Record allocates %.1f per call, want 0", allocs)
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.DeadlineExceeded, ClassTimeout},
		{fmt.Errorf("rpc: %w", context.DeadlineExceeded), ClassTimeout},
		{context.Canceled, ClassCancel},
		{classed{"overload"}, ClassOverload},
		{fmt.Errorf("wrap: %w", classed{"breaker-open"}), ClassBreakerOpen},
		{errors.New("plain"), ClassError},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

type classed struct{ class string }

func (c classed) Error() string      { return c.class }
func (c classed) ErrorClass() string { return c.class }

// --- logger ---

func TestLoggerLevelGate(t *testing.T) {
	l := NewLogger()
	l.Info(nil, "below default level")
	l.Warn(nil, "at level")
	if got := l.Recent(0); len(got) != 1 || got[0].Msg != "at level" {
		t.Fatalf("default Warn level should drop Info: %+v", got)
	}
	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) {
		t.Fatal("Enabled(Debug) false after SetLevel(Debug)")
	}
	l.Debug(nil, "now visible")
	if got := l.Recent(0); len(got) != 2 {
		t.Fatalf("debug entry not recorded after SetLevel: %+v", got)
	}
	l.SetLevel(LevelOff)
	l.Error(nil, "silenced")
	if got := l.Recent(0); len(got) != 2 {
		t.Fatal("LevelOff should silence Error")
	}
}

func TestLoggerStampsTraceFromContext(t *testing.T) {
	l := NewLogger()
	sc := SpanContext{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}
	ctx := ContextWithSpanContext(context.Background(), sc)
	l.Warn(ctx, "correlated")
	got := l.Recent(1)
	if len(got) != 1 || got[0].TraceID != sc.TraceID || got[0].SpanID != sc.SpanID {
		t.Fatalf("trace identity not stamped: %+v", got)
	}
	line := got[0].Format()
	if !strings.Contains(line, "trace=1122334455667788") || !strings.Contains(line, "span=99aabbccddeeff00") {
		t.Fatalf("formatted line missing hex ids: %s", line)
	}
}

func TestLoggerFormat(t *testing.T) {
	e := LogEntry{
		Time:  time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Level: LevelWarn,
		Msg:   "breaker opened",
		KV:    []interface{}{"endpoint", "http://h:1/svc", "fails", 3, "window", 250 * time.Millisecond, "err", errors.New("dial refused")},
	}
	got := e.Format()
	want := `ts=2026-08-08T12:00:00.000Z level=warn msg="breaker opened" endpoint=http://h:1/svc fails=3 window=250ms err="dial refused"`
	if got != want {
		t.Fatalf("Format:\n got %s\nwant %s", got, want)
	}
}

func TestLoggerSinkAndRing(t *testing.T) {
	l := NewLogger()
	var buf bytes.Buffer
	l.SetOutput(&buf)
	l.Warn(nil, "to sink", "k", "v")
	if !strings.Contains(buf.String(), `msg="to sink" k=v`) {
		t.Fatalf("sink output: %q", buf.String())
	}
	l.SetOutput(nil)
	l.Warn(nil, "ring only")
	if strings.Contains(buf.String(), "ring only") {
		t.Fatal("detached sink still receiving")
	}
	if got := l.Recent(1); len(got) != 1 || got[0].Msg != "ring only" {
		t.Fatalf("ring should retain sink-less entries: %+v", got)
	}
}

func TestLoggerRingWraps(t *testing.T) {
	l := NewLogger()
	for i := 0; i < loggerRingCap+10; i++ {
		l.Warn(nil, "entry", "i", i)
	}
	got := l.Recent(0)
	if len(got) != loggerRingCap {
		t.Fatalf("ring holds %d, want %d", len(got), loggerRingCap)
	}
	if got[0].KV[1].(int) != 10 || got[len(got)-1].KV[1].(int) != loggerRingCap+9 {
		t.Fatalf("wrapped ring out of order: first=%v last=%v", got[0].KV, got[len(got)-1].KV)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Warn(nil, "into the void")
	l.SetLevel(LevelDebug)
	if l.Recent(0) != nil || l.Enabled(LevelError) {
		t.Fatal("nil logger should be inert")
	}
}

// --- exporters ---

func TestWritePrometheusDeterministicAndParseable(t *testing.T) {
	h := New()
	h.Meter.Counter("b.second").Add(2)
	h.Meter.Counter("a.first").Inc()
	h.Meter.Gauge("q.depth").Add(5)
	h.Meter.Histogram("rt.latency").Observe(3 * time.Millisecond)
	h.Calls.Record("Echo", DirClient, time.Millisecond, false)
	h.Calls.Record("Echo", DirServer, 2*time.Millisecond, true)
	h.Flight.Record(CallRecord{Service: "Echo", Dir: DirClient}, nil)

	var one, two bytes.Buffer
	if err := h.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := h.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatalf("consecutive renders differ:\n%s\n---\n%s", one.String(), two.String())
	}

	checkPrometheusText(t, one.String())

	for _, want := range []string{
		"wspeer_a_first_total 1",
		"wspeer_b_second_total 2",
		"wspeer_q_depth 5",
		"# TYPE wspeer_rt_latency_seconds histogram",
		`wspeer_calls_total{service="Echo",dir="client"} 1`,
		`wspeer_call_failures_total{service="Echo",dir="server"} 1`,
		`wspeer_call_latency_seconds_bucket{service="Echo",dir="client",le="+Inf"} 1`,
		"wspeer_flight_seen_total 1",
	} {
		if !strings.Contains(one.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, one.String())
		}
	}
	// Counter families must be sorted by name.
	if strings.Index(one.String(), "wspeer_a_first_total") > strings.Index(one.String(), "wspeer_b_second_total") {
		t.Error("counter families not sorted by name")
	}
}

// checkPrometheusText validates the subset of the text exposition format
// the exporter emits: TYPE lines naming a known kind, then samples shaped
// `name{labels} value` whose name matches the Prometheus grammar.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric kind %q", ln+1, parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i > 0 {
			name = line[:i]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("line %d: invalid metric name %q", ln+1, name)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("line %d: sample without value: %q", ln+1, line)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("line %d: sample %q has no TYPE line", ln+1, name)
			}
		}
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	h := New()
	h.Meter.Counter("z.last").Inc()
	h.Meter.Counter("a.first").Inc()
	h.Calls.Record("B", DirClient, time.Millisecond, false)
	h.Calls.Record("A", DirServer, time.Millisecond, false)
	one, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	two, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n---\n%s", one, two)
	}
	// Call table sorted by service then dir.
	snap := h.Snapshot()
	if snap.Calls[0].Service != "A" || snap.Calls[1].Service != "B" {
		t.Fatalf("call table not sorted: %+v", snap.Calls)
	}
}

// TestSpanRing pins the ring's bound: Len grows to the capacity and
// stays there, and the oldest spans are the ones evicted.
func TestSpanRing(t *testing.T) {
	r := NewSpanRing(4)
	if r.Len() != 0 || len(r.Spans()) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 0; i < 10; i++ {
		r.OnSpanEnd(SpanData{SpanID: uint64(i + 1)})
		if want := min(i+1, 4); r.Len() != want {
			t.Fatalf("after %d spans Len = %d, want %d", i+1, r.Len(), want)
		}
	}
	spans := r.Spans()
	for i, d := range spans {
		if d.SpanID != uint64(7+i) {
			t.Fatalf("ring out of order: %+v", spans)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	spans := []SpanData{
		{Name: "invoke", TraceID: 1, SpanID: 2, Service: "Echo", Op: "echo", Dir: "client",
			Start: base, End: base.Add(3 * time.Millisecond),
			Annotations: []Annotation{{Time: base.Add(time.Millisecond), Msg: "retry 1"}}},
		{Name: "dispatch", TraceID: 1, SpanID: 3, ParentID: 2, Dir: "server",
			Start: base.Add(time.Millisecond), End: base.Add(2 * time.Millisecond), Err: "boom"},
		{Name: "other", TraceID: 9, SpanID: 4, Start: base, End: base.Add(time.Millisecond)},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
		Unit        string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	// 2 thread_name metadata + 3 X spans + 1 instant annotation.
	var meta, complete, instant int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("complete event without duration: %+v", ev)
			}
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 3 || instant != 1 {
		t.Fatalf("event mix M=%d X=%d i=%d, want 2/3/1", meta, complete, instant)
	}
	// Spans of one trace share a tid; the other trace gets its own.
	tids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			tids[ev["tid"].(float64)] = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("trace rows = %d, want 2", len(tids))
	}
	// Empty input still renders a loadable document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace not loadable: %s", buf.String())
	}
}

func TestEnableTracingInstallsRing(t *testing.T) {
	h := New()
	if h.TraceRing() != nil {
		t.Fatal("ring present before EnableTracing")
	}
	ring := h.EnableTracing(8)
	if h.TraceRing() != ring {
		t.Fatal("TraceRing does not return the installed ring")
	}
	span, _ := h.Tracer.StartSpan(context.Background(), "op")
	span.End()
	if ring.Len() != 1 {
		t.Fatalf("ring did not receive ended span: len=%d", ring.Len())
	}
}

func TestLoggerConcurrent(t *testing.T) {
	l := NewLogger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Warn(nil, "spin", "g", g, "i", i)
				l.Recent(4)
			}
		}(g)
	}
	wg.Wait()
	if got := l.Recent(0); len(got) != loggerRingCap {
		t.Fatalf("after concurrent writes ring holds %d, want %d", len(got), loggerRingCap)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(RecorderOptions{Capacity: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%7 == 0 {
					err = errors.New("boom")
				}
				r.Record(CallRecord{Service: "Echo", Dir: DirClient, Latency: time.Duration(i) * time.Microsecond}, err)
				if i%100 == 0 {
					r.Query(RecordFilter{ErrorsOnly: true})
					r.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.Seen != 4000 || st.Kept+st.Dropped != st.Seen {
		t.Fatalf("stats inconsistent after concurrent load: %+v", st)
	}
}
