package main

// trace.go — spans recorded by the harness around each call into a
// layer.  Nothing inside the product is instrumented: the tracer only
// sees what crosses a public function boundary (and interp.Run's
// OnForce callback, which splits compile from execute).  Spans live in
// memory; each finished op is folded into per-(unit, config, layer)
// self-time totals, and the first ops are also kept for the Chrome
// trace-event file.

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval: a call into a layer.
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int32 // index into the op's spans, -1 for the op itself
}

// aggKey names one row of the budget: a layer's self time inside the ops
// of one unit at one configuration.
type aggKey struct {
	unit int
	cfg  config
	name string
}

// keepSpans bounds the Chrome trace file: spans of later ops are folded
// into the totals and dropped.
const keepSpans = 40_000

// tracer records the spans of one op at a time.  It is used from the
// harness goroutine only.  A nil *tracer records nothing, so untraced
// runs share the traced runs' code path.
type tracer struct {
	t0    time.Time
	cur   []span  // spans of the op in flight, in begin order
	stack []int32 // indices of open spans
	unit  int
	cfg   config
	opID  int
	agg   map[aggKey]float64 // summed self time, ns
	kept  []keptSpan
	child []int64 // scratch of fold: time covered by each span's children
}

type keptSpan struct {
	span
	parentName string
	op         int
	unit       int
	cfg        config
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[aggKey]float64{}}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{name: name, start: int64(time.Since(t.t0)), parent: parent})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (which must be the innermost open span).  Closing
// the op's root span folds the op into the totals.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.cur[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.fold()
	}
}

// fold adds the finished op's self times (a span's duration minus the
// part its children cover) to the totals.
func (t *tracer) fold() {
	child := append(t.child[:0], make([]int64, len(t.cur))...)
	t.child = child
	for _, s := range t.cur {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.cur {
		t.agg[aggKey{t.unit, t.cfg, s.name}] += float64(s.end - s.start - child[i])
		if len(t.kept) < keepSpans {
			parent := ""
			if s.parent >= 0 {
				parent = t.cur[s.parent].name
			}
			t.kept = append(t.kept, keptSpan{s, parent, t.opID, t.unit, t.cfg})
		}
	}
	t.opID++
	t.cur = t.cur[:0]
}

// selfNsPerOp is the mean self time per op of one layer in one unit at
// one configuration; ops is the number of ops traced there.
func (t *tracer) selfNsPerOp(unit int, cfg config, name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return t.agg[aggKey{unit, cfg, name}] / float64(ops)
}

// writeChrome writes the kept spans as Chrome trace-event JSON (load it
// in chrome://tracing or Perfetto): one lane per configuration.
func (t *tracer) writeChrome(path string, units []*unit) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.kept))
	for _, k := range t.kept {
		events = append(events, event{
			Name: k.name, Ph: "X",
			Ts: float64(k.start) / 1e3, Dur: float64(k.end-k.start) / 1e3,
			Pid: 1, Tid: int(k.cfg) + 1,
			Args: map[string]any{"op": k.op, "unit": units[k.unit].name, "parent": k.parentName},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
