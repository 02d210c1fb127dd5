package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Labels are canonicalised (sorted by key)
// when a metric is registered, so the handle for a given (name, label set)
// is unique regardless of argument order.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric. Integer addition is
// commutative and associative, so a counter's final value is independent of
// the schedule that produced it — counters are safe for the deterministic
// export even when bumped from worker goroutines.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric. Because "last write" is
// schedule-dependent under concurrency, gauges belong in the deterministic
// export only when they are set from a single goroutine or at points where
// every schedule produces the same final value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records a distribution of float observations into fixed
// buckets. It deliberately does NOT keep a running sum: a float sum
// accumulated in schedule order is not byte-deterministic, whereas bucket
// counts, the total count, and min/max are all order-invariant functions of
// the observed multiset — those are what the export contains.
type Histogram struct {
	bounds  []float64 // upper bounds, strictly increasing; +Inf implied last
	buckets []atomic.Uint64
	count   atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits, CAS-updated
	maxBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		cur := h.minBits.Load()
		if v >= math.Float64frombits(cur) {
			break
		}
		if h.minBits.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
	for {
		cur := h.maxBits.Load()
		if v <= math.Float64frombits(cur) {
			break
		}
		if h.maxBits.CompareAndSwap(cur, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Min returns the smallest observation, or +Inf when empty.
func (h *Histogram) Min() float64 {
	if h == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or -Inf when empty.
func (h *Histogram) Max() float64 {
	if h == nil {
		return math.Inf(-1)
	}
	return math.Float64frombits(h.maxBits.Load())
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name     string
	labels   []Label // sorted by key
	kind     metricKind
	unstable bool
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
}

// key returns "name{k1=v1,k2=v2}" over sorted labels — the registry map key
// and also the export identity.
func (m *metric) key() string { return metricKey(m.name, m.labels) }

func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registry is a concurrency-safe collection of metrics. Handles are
// get-or-create: repeated registration with the same name and label set
// returns the same handle, so forks of an instrumented component share
// accumulation naturally. All methods are safe on a nil registry (they
// return nil handles, which are themselves no-ops).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) get(name string, labels []Label, kind metricKind, unstable bool, bounds []float64) *metric {
	ls := sortedLabels(labels)
	k := metricKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[k]; ok {
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind, unstable: unstable}
	switch kind {
	case kindCounter:
		m.counter = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = newHistogram(bounds)
	}
	r.metrics[k] = m
	return m
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindCounter, false, nil).counter
}

// UnstableCounter is Counter for scheduling-dependent values (e.g. retry
// totals that depend on goroutine interleaving).
// Unstable metrics are excluded from the deterministic export and appear
// only in the profile dump.
func (r *Registry) UnstableCounter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindCounter, true, nil).counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindGauge, false, nil).gauge
}

// Histogram returns the histogram for (name, labels), creating it with the
// given upper bounds on first use. Bounds must be strictly increasing; a
// final +Inf bucket is implicit. Later calls may pass nil bounds to fetch
// the existing handle.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, labels, kindHistogram, false, bounds).hist
}

type exportFilter int

const (
	stableOnly exportFilter = iota
	unstableOnly
)

// snapshot returns the selected metrics sorted by export key.
func (r *Registry) snapshot(filter exportFilter) []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		if m.unstable == (filter == unstableOnly) {
			out = append(out, m)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText writes the deterministic (stable-tier) metrics as one line per
// metric, sorted by name and label signature.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# metrics disabled (no observer)")
		return err
	}
	return r.writeText(w, stableOnly)
}

func (r *Registry) writeText(w io.Writer, filter exportFilter) error {
	for _, m := range r.snapshot(filter) {
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.key(), m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", m.key(), formatFloat(m.gauge.Value()))
		case kindHistogram:
			err = writeHistText(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistText(w io.Writer, m *metric) error {
	h := m.hist
	if _, err := fmt.Fprintf(w, "%s count=%d", m.key(), h.Count()); err != nil {
		return err
	}
	if h.Count() > 0 {
		if _, err := fmt.Fprintf(w, " min=%s max=%s", formatFloat(h.Min()), formatFloat(h.Max())); err != nil {
			return err
		}
	}
	for i := range h.buckets {
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, " le(%s)=%d", bound, h.buckets[i].Load()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteJSON writes the deterministic metrics as a JSON object keyed by the
// metric's export key, with stable member ordering (hand-rendered so the
// output is byte-reproducible; encoding/json map ordering is sorted too,
// but hand-rendering also keeps per-metric shape explicit).
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "{}")
		return err
	}
	ms := r.snapshot(stableOnly)
	if _, err := fmt.Fprint(w, "{"); err != nil {
		return err
	}
	for i, m := range ms {
		sep := ","
		if i == 0 {
			sep = ""
		}
		var body string
		switch m.kind {
		case kindCounter:
			body = fmt.Sprintf(`{"type":"counter","value":%d}`, m.counter.Value())
		case kindGauge:
			body = fmt.Sprintf(`{"type":"gauge","value":%s}`, jsonFloat(m.gauge.Value()))
		case kindHistogram:
			body = histJSON(m.hist)
		}
		if _, err := fmt.Fprintf(w, "%s\n  %s: %s", sep, strconv.Quote(m.key()), body); err != nil {
			return err
		}
	}
	if len(ms) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// jsonFloat renders a float as a JSON value; non-finite values (legal in
// our text export, not in JSON) are quoted.
func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return strconv.Quote(formatFloat(v))
	}
	return formatFloat(v)
}

func histJSON(h *Histogram) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"type":"histogram","count":%d`, h.Count())
	if h.Count() > 0 {
		fmt.Fprintf(&b, `,"min":%s,"max":%s`, jsonFloat(h.Min()), jsonFloat(h.Max()))
	}
	b.WriteString(`,"buckets":[`)
	for i := range h.buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		bound := `"+Inf"`
		if i < len(h.bounds) {
			bound = jsonFloat(h.bounds[i])
		}
		fmt.Fprintf(&b, `{"le":%s,"count":%d}`, bound, h.buckets[i].Load())
	}
	b.WriteString("]}")
	return b.String()
}
