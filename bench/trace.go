package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fpisa/internal/transport"
)

// Span names, one per layer boundary the benchmark can reach from outside
// the packages under test.
const (
	spanReduce      = "Worker.Reduce"
	spanSend        = "TupleClient.Send"
	spanDrain       = "drain"
	spanSendBatch   = "Fabric.SendBatch"
	spanRecvBatch   = "Fabric.RecvBatch"
	spanHandleBatch = "Switch.HandleBatch"
	spanSpineBatch  = "spine.HandleBatch"
)

// span is one timed call. Times are nanoseconds since the tracer started;
// Parent is the index of the span that caused this one (-1 for an
// operation's root) and Op is shared by all spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Pkts   int32  `json:"pkts"`
}

// lane is the tracing state of one load-generating goroutine: the
// operation it is in and the chain of open spans on its synchronous call
// path (SendBatch → HandleBatch → spine HandleBatch on Memory fabrics).
// The goroutine that calls SendBatch owns stack, with one exception: a tree
// leaf's uplink client retransmits from its own goroutine after a 200 ms
// stall, and that call reaches the spine's handler too, so mu guards stack
// (such a span may then hang off the wrong parent; the stack stays whole).
// Receivers and UDP serve goroutines read op and root, which are written
// before the operation's goroutines start.
type lane struct {
	op, root int32
	mu       sync.Mutex
	stack    []int32
}

// tracer keeps spans in a preallocated slice and writes them after the
// run. A span that does not fit is counted, not recorded.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	nextOp  atomic.Int32
	dropped atomic.Int64
	lanes   [2]lane
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, or -1 when the slice is full.
func (t *tracer) begin(name string, parent, op int32, pkts int) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: t.now(), Parent: parent, Op: op, Pkts: int32(pkts)}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = t.now()
	}
}

// beginOp opens the root span of one operation on a lane.
func (t *tracer) beginOp(ln int, name string, pkts int) {
	l := &t.lanes[ln]
	l.op = t.nextOp.Add(1) - 1
	l.root = t.begin(name, -1, l.op, pkts)
	l.mu.Lock()
	l.stack = append(l.stack[:0], l.root)
	l.mu.Unlock()
}

func (t *tracer) endOp(ln int) { t.end(t.lanes[ln].root) }

// push opens a span on the lane's synchronous call path, under the span
// opened last; pop closes it.
func (t *tracer) push(ln int, name string, pkts int) int32 {
	l := &t.lanes[ln]
	l.mu.Lock()
	i := t.begin(name, l.stack[len(l.stack)-1], l.op, pkts)
	l.stack = append(l.stack, i)
	l.mu.Unlock()
	return i
}

func (t *tracer) pop(ln int, i int32) {
	l := &t.lanes[ln]
	l.mu.Lock()
	l.stack = l.stack[:len(l.stack)-1]
	l.mu.Unlock()
	t.end(i)
}

// open starts a span that hangs directly off the lane's operation: a
// receive, or a handler the fabric runs on its own goroutine. end closes it.
func (t *tracer) open(ln int, name string, pkts int) int32 {
	l := &t.lanes[ln]
	return t.begin(name, l.root, l.op, pkts)
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func selfTimes(spans []span) map[string]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range spans {
		self[s.Name] += float64(s.End - s.Start - covered[i])
	}
	return self
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// tracedFabric records a span per SendBatch and RecvBatch. laneOf maps a
// transport port to the lane driving it.
type tracedFabric struct {
	transport.Fabric
	t      *tracer
	laneOf func(port int) int
}

func (f tracedFabric) SendBatch(port int, pkts [][]byte) error {
	ln := f.laneOf(port)
	i := f.t.push(ln, spanSendBatch, len(pkts))
	err := f.Fabric.SendBatch(port, pkts)
	f.t.pop(ln, i)
	return err
}

func (f tracedFabric) RecvBatch(port int, bufs [][]byte, timeout time.Duration) (int, error) {
	i := f.t.open(f.laneOf(port), spanRecvBatch, 0)
	n, err := f.Fabric.RecvBatch(port, bufs, timeout)
	f.t.end(i)
	return n, err
}

// tracedHandler records a span per handler call. On a Memory fabric the
// handler runs inside the sender's SendBatch, so its span nests there
// (inSend); a UDP fabric runs it on a serve goroutine, so its span hangs
// off the operation's root.
func tracedHandler(t *tracer, name string, inSend bool, laneOf func(port int) int, h transport.BatchHandler) transport.BatchHandler {
	return func(port int, pkts [][]byte, out *transport.DeliveryList) {
		ln := laneOf(port)
		if inSend {
			i := t.push(ln, name, len(pkts))
			h(port, pkts, out)
			t.pop(ln, i)
			return
		}
		i := t.open(ln, name, len(pkts))
		h(port, pkts, out)
		t.end(i)
	}
}
