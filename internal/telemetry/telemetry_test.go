package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the exact exposition bytes for a registry
// exercising every metric type, labels, escaping, and ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("b_total", "Plain counter.")
	c.Add(3)

	cv := r.CounterVec("a_total", "Labeled counter.", "peer", "op")
	cv.With("w2", "steal").Inc()
	cv.With("w1", "run").Add(2)

	g := r.Gauge("c_level", "A gauge.")
	g.Set(1.5)
	g.Add(-0.25)

	h := r.Histogram("d_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(0.5)

	esc := r.CounterVec("e_total", "Help with \\ and\nnewline.", "v")
	esc.With("a\"b\\c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total Labeled counter.
# TYPE a_total counter
a_total{peer="w1",op="run"} 2
a_total{peer="w2",op="steal"} 1
# HELP b_total Plain counter.
# TYPE b_total counter
b_total 3
# HELP c_level A gauge.
# TYPE c_level gauge
c_level 1.25
# HELP d_seconds A histogram.
# TYPE d_seconds histogram
d_seconds_bucket{le="0.1"} 1
d_seconds_bucket{le="1"} 3
d_seconds_bucket{le="+Inf"} 4
d_seconds_sum 3.05
d_seconds_count 4
# HELP e_total Help with \\ and\nnewline.
# TYPE e_total counter
e_total{v="a\"b\\c\nd"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionDeterministic checks repeated renders are byte-identical.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x_total", "x", "k")
	for _, v := range []string{"c", "a", "b", "zz", "m"} {
		cv.With(v).Inc()
	}
	var first strings.Builder
	r.WritePrometheus(&first)
	for i := 0; i < 5; i++ {
		var again strings.Builder
		r.WritePrometheus(&again)
		if again.String() != first.String() {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

// TestRegistrationIdempotent verifies same-shape re-registration returns
// the same underlying child, and that Value sees updates from either.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second help ignored")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Errorf("re-registered counter not shared: %d", got)
	}
	v, ok := r.Value("dup_total")
	if !ok || v != 2 {
		t.Errorf("Value(dup_total) = %v, %v; want 2, true", v, ok)
	}
}

// TestRegistrationConflictPanics verifies a kind or label mismatch on an
// existing name panics rather than silently forking the metric.
func TestRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "counter")
	for name, fn := range map[string]func(){
		"kind":   func() { r.Gauge("clash_total", "now a gauge") },
		"labels": func() { r.CounterVec("clash_total", "now labeled", "k") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFloatCounter covers the float counter: exposition as a counter,
// Value lookups, a clash with an integer counter of the same name, and
// the refusal to count down.
func TestFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.FloatCounter("f_seconds_total", "Float counter.")
	c.Add(1.5)
	r.FloatCounter("f_seconds_total", "fetched again").Add(0.25)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP f_seconds_total Float counter.\n# TYPE f_seconds_total counter\nf_seconds_total 1.75\n"
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
	if v, ok := r.Value("f_seconds_total"); !ok || v != 1.75 || c.Value() != 1.75 {
		t.Errorf("Value = %v, %v; counter %v; want 1.75", v, ok, c.Value())
	}
	for name, fn := range map[string]func(){
		"clash":    func() { r.Counter("f_seconds_total", "now integral") },
		"negative": func() { c.Add(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestValueLookups covers labeled lookups, gauges, histograms and misses.
func TestValueLookups(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("lv_total", "x", "peer").With("w1").Add(7)
	r.Gauge("lg_level", "x").Set(-2.5)
	h := r.Histogram("lh_seconds", "x", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	if v, ok := r.Value("lv_total", "w1"); !ok || v != 7 {
		t.Errorf("labeled counter value = %v, %v", v, ok)
	}
	if v, ok := r.Value("lg_level"); !ok || v != -2.5 {
		t.Errorf("gauge value = %v, %v", v, ok)
	}
	if v, ok := r.Value("lh_seconds"); !ok || v != 2 {
		t.Errorf("histogram count = %v, %v", v, ok)
	}
	if _, ok := r.Value("missing_total"); ok {
		t.Error("missing family reported present")
	}
	if _, ok := r.Value("lv_total", "nobody"); ok {
		t.Error("missing child reported present")
	}
	if _, ok := r.Value("lv_total"); ok {
		t.Error("label arity mismatch reported present")
	}
}

// TestHandler checks method filtering and the exposition content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q, want %q", ct, ContentType)
	}

	post, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", post.StatusCode)
	}
}

// TestConcurrentUpdatesAndScrapes hammers every metric type from many
// goroutines while scraping, so `go test -race` proves the atomics and
// the registry locking hold up, and the final totals must be exact.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "x")
	cv := r.CounterVec("ccv_total", "x", "k")
	g := r.Gauge("cg_level", "x")
	h := r.Histogram("ch_seconds", "x", DefBuckets)

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(lbl).Inc()
				g.Add(1)
				h.Observe(float64(i%10) / 10)
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		lbl := string(rune('a' + w))
		if v, ok := r.Value("ccv_total", lbl); !ok || v != perWorker {
			t.Errorf("ccv_total{k=%q} = %v, %v; want %d", lbl, v, ok, perWorker)
		}
	}
}

// TestHistogramBucketEdges pins the le (less-or-equal) boundary
// semantics: a value exactly on a bound lands in that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "x", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(2.0001)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`edge_seconds_bucket{le="1"} 1`,
		`edge_seconds_bucket{le="2"} 2`,
		`edge_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
