package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dsenergy/internal/obs"
)

// clock reads host time through internal/obs, the repository's wall-clock
// quarantine: one PhaseTimer is started at the epoch, and each call to its
// stop function adds the time elapsed since the epoch to the timer's total,
// so the growth of that total is the current reading. A clock is used from
// one goroutine only.
type clock struct {
	t    obs.PhaseTimer
	stop func()
}

func newClock() *clock {
	c := &clock{}
	c.stop = c.t.Start()
	return c
}

// now returns the host time elapsed since the clock was made.
func (c *clock) now() time.Duration {
	before := c.t.Total()
	c.stop()
	return c.t.Total() - before
}

// since returns the seconds elapsed since an earlier reading.
func (c *clock) since(start time.Duration) float64 {
	return (c.now() - start).Seconds()
}

// span is one call the benchmark made into a layer's public function.
// Parent is the index of the enclosing span, or -1 at the top.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so the untraced runs take the same code path.
type tracer struct {
	clk   *clock
	spans []span
	open  []int
}

func newTracer(clk *clock) *tracer {
	return &tracer{clk: clk, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartS: t.clk.now().Seconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span, and returns
// its duration in seconds (0 on a nil tracer).
func (t *tracer) end(i int) float64 {
	if t == nil {
		return 0
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndS = t.clk.now().Seconds()
	return t.spans[i].EndS - t.spans[i].StartS
}

// write dumps the spans as JSON to path, each with its self time: its
// duration minus the part its child spans cover. Children of one span run
// one after another, so that part is the sum of their durations.
func (t *tracer) write(path string) error {
	type record struct {
		span
		SelfS float64 `json:"self_s"`
	}
	out := make([]record, len(t.spans))
	for i, s := range t.spans {
		out[i] = record{span: s, SelfS: s.EndS - s.StartS}
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			out[s.Parent].SelfS -= s.EndS - s.StartS
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
