package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names of device calls, by volume (index 0 data, 1 log) and kind.
const (
	spanRead = iota
	spanWrite
	spanSync
)

var devSpanNames = [2][3]string{
	{"disk.data.read", "disk.data.write", "disk.data.sync"},
	{"disk.log.read", "disk.log.write", "disk.log.sync"},
}

// span is one recorded interval.  Request spans have Parent 0, a public
// call's Parent is its request, and a device span's Parent is the call
// (or request) it was charged to.
type span struct {
	ID, Parent uint64
	Name       string
	Client     int
	Start, End int64 // ns since the tracer started
}

// interval is one device call charged to an operation.
type interval struct {
	vol        int
	start, end int64 // ns since the tracer started
}

// opSpan is a request or public call in flight.  It is the goroutine
// tag (see setGoroutineOp) of the goroutine running it, and goroutines
// that goroutine starts inherit the tag: the store issues some device
// calls from goroutines of its own (the buffer pool flushes its shards
// in parallel, a multi-segment read reads its segments in parallel), and
// those are charged to the operation that started them.  dev and ended
// are guarded by tracer.mu.
type opSpan struct {
	id       uint64
	parent   *opSpan
	name     string
	client   int
	start    time.Time
	dev      []interval
	logPages int64 // log-volume pages written
	ended    bool
}

// opTimes collects the durations of one kind of operation and how each
// splits into eos self time and device time per volume.  Device time is
// the length of the union of the operation's device-call intervals, so
// calls that overlap (parallel reads, parallel shard flushes) count once.
type opTimes struct {
	dur, self, dataNs, logNs []int64
	logBytes                 []int64 // log bytes written
}

// tracer records spans around public eos calls and device calls in
// memory.  Every request of the measured phase is traced; the tracing
// overhead is the traced run's op_p50_ms against the untraced run's.
type tracer struct {
	t0        time.Time
	pageSize  int64
	measuring atomic.Bool
	nextID    atomic.Uint64

	mu         sync.Mutex
	spans      [][]span // in the order they ended, in chunks of spanChunk
	ops        map[string]*opTimes
	unattrib   int64 // device calls in the measured phase charged to no operation
	unattribNs int64
}

// spanChunk is how many spans one chunk of tracer.spans holds.  A traced
// run records millions of spans; fixed chunks grow without the copies
// and slack of one doubling slice.
const spanChunk = 1 << 16

// record appends sp to the recorded spans.  Call it with t.mu held.
func (t *tracer) record(sp span) {
	n := len(t.spans)
	if n == 0 || len(t.spans[n-1]) == spanChunk {
		t.spans = append(t.spans, make([]span, 0, spanChunk))
		n++
	}
	t.spans[n-1] = append(t.spans[n-1], sp)
}

func newTracer(pageSize int) *tracer {
	return &tracer{t0: time.Now(), pageSize: int64(pageSize), ops: make(map[string]*opTimes)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a request span on the calling goroutine: one closed-loop
// request of a client, made of one or more public calls.  always traces
// it outside the measured phase too (checkpoints, recovery).  It
// returns nil when there is nothing to record.
func (t *tracer) begin(client int, name string, always bool) *opSpan {
	if t == nil || !always && !t.measuring.Load() {
		return nil
	}
	op := &opSpan{id: t.nextID.Add(1), name: name, client: client, start: time.Now()}
	setGoroutineOp(op)
	return op
}

// call opens a span for one public eos call made inside req.  It is nil
// (and end ignores it) unless req is traced.
func (t *tracer) call(req *opSpan, name string) *opSpan {
	if req == nil {
		return nil
	}
	op := &opSpan{id: t.nextID.Add(1), parent: req, name: name, client: req.client, start: time.Now()}
	setGoroutineOp(op)
	return op
}

// end closes op, files its times, and hands its device intervals up to
// the enclosing request.
func (t *tracer) end(op *opSpan) {
	if t == nil || op == nil {
		return
	}
	end := time.Now()
	setGoroutineOp(op.parent)
	dur := int64(end.Sub(op.start))
	t.mu.Lock()
	defer t.mu.Unlock()
	op.ended = true
	var parentID uint64
	if p := op.parent; p != nil {
		parentID = p.id
		p.dev = append(p.dev, op.dev...)
		p.logPages += op.logPages
	}
	ot := t.ops[op.name]
	if ot == nil {
		ot = &opTimes{}
		t.ops[op.name] = ot
	}
	data, log, all := unionNs(op.dev)
	ot.dur = append(ot.dur, dur)
	ot.self = append(ot.self, dur-all)
	ot.dataNs = append(ot.dataNs, data)
	ot.logNs = append(ot.logNs, log)
	ot.logBytes = append(ot.logBytes, op.logPages*t.pageSize)
	t.record(span{ID: op.id, Parent: parentID, Name: op.name, Client: op.client,
		Start: t.since(op.start), End: t.since(end)})
}

// device records one device call of n pages and charges it to the
// operation the calling goroutine is tagged with, or to the nearest
// enclosing one still open if that has ended.  A call with no open
// operation is counted as unattributed while the measured phase runs.
func (t *tracer) device(vol, kind, n int, began, end time.Time) {
	if t == nil {
		return
	}
	op := goroutineOp()
	if op == nil && !t.measuring.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for op != nil && op.ended {
		op = op.parent
	}
	if op == nil {
		if t.measuring.Load() {
			t.unattrib++
			t.unattribNs += int64(end.Sub(began))
		}
		return
	}
	iv := interval{vol: vol, start: t.since(began), end: t.since(end)}
	op.dev = append(op.dev, iv)
	if vol == 1 && kind == spanWrite {
		op.logPages += int64(n)
	}
	t.record(span{ID: t.nextID.Add(1), Parent: op.id, Name: devSpanNames[vol][kind],
		Client: op.client, Start: iv.start, End: iv.end})
}

// unionNs returns the total length of the union of ivs on the data
// volume, on the log volume, and on both.
func unionNs(ivs []interval) (data, log, all int64) {
	if len(ivs) == 0 {
		return 0, 0, 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var byVol [2][]interval
	for _, iv := range s {
		byVol[iv.vol] = append(byVol[iv.vol], iv)
	}
	return unionSorted(byVol[0]), unionSorted(byVol[1]), unionSorted(s)
}

// unionSorted is the length of the union of intervals sorted by start.
func unionSorted(s []interval) int64 {
	var total int64
	for i := 0; i < len(s); {
		lo, hi := s[i].start, s[i].end
		for i++; i < len(s) && s[i].start <= hi; i++ {
			if s[i].end > hi {
				hi = s[i].end
			}
		}
		total += hi - lo
	}
	return total
}

// start begins the measured phase: it drops everything recorded so far
// and traces every request until stop.  Call both with no request in
// flight.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans, t.ops = nil, make(map[string]*opTimes)
	t.unattrib, t.unattribNs = 0, 0
	t.mu.Unlock()
	t.measuring.Store(true)
}

func (t *tracer) stop() { t.measuring.Store(false) }

// times returns the collected durations of one operation kind.
func (t *tracer) times(name string) opTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ot := t.ops[name]; ot != nil {
		return *ot
	}
	return opTimes{}
}

// unattributed returns the number and total time of the measured
// phase's device calls that no operation was charged with.
func (t *tracer) unattributed() (int64, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unattrib, time.Duration(t.unattribNs)
}

// writeSpans writes every recorded span, in the order they ended, as
// tab-separated lines: id, parent, client, name, start_ns, end_ns.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tclient\tname\tstart_ns\tend_ns")
	for _, chunk := range t.spans {
		for _, s := range chunk {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Client, s.Name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
