package disk

import (
	"bytes"
	"sort"
	"sync"
)

// This file holds the repository's one definition of which writes
// survive a power cut, and the test device built on it.  The rule is
// what the engine may assume of a real disk:
//
//   - a single page write is atomic;
//   - a page is durable once a covering Force, ForceAll or
//     ForceAllExcept returns;
//   - pages in ForceAllExcept's skip set stay volatile (the transaction
//     layer's contract: one transaction's commit never makes another's
//     in-place writes durable);
//   - until then, a power cut may keep any one of the page's volatile
//     versions, or none.
//
// CrashImage replays a stream of write and force requests under that
// rule.  CrashDevice keeps one per wrapped device and reverts every
// unforced page on Crash; the crash-state sweep replays a recorded
// CrashTrace into its own CrashImages and resolves every state the rule
// allows.

// CrashKind labels a recorded device request.
type CrashKind uint8

// Recorded request kinds.
const (
	KindWrite    CrashKind = iota // WritePages or WriteRun
	KindForce                     // Force
	KindForceAll                  // ForceAll, or ForceAllExcept with Skip
)

// CrashEvent is one write or force request.  Write events carry a
// private copy of the written page images; force events carry their
// coverage.
type CrashEvent struct {
	Seq   int
	Dev   int // device id given to CrashDevice.Record
	Kind  CrashKind
	Start PageNum
	N     int    // pages written or forced (0 for KindForceAll)
	Data  []byte // concatenated page images for writes, len = N*pageSize
	Skip  map[PageNum]bool
}

// CrashTrace is a totally ordered recording shared by the crash devices
// of one run, so the interleaving of data- and log-volume requests is
// preserved.
type CrashTrace struct {
	mu     sync.Mutex
	events []CrashEvent // eos:guardedby mu
}

// Len reports the number of recorded events (the next sequence number).
func (t *CrashTrace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the recorded trace.  The caller must not mutate it.
func (t *CrashTrace) Events() []CrashEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

func (t *CrashTrace) add(ev CrashEvent) {
	t.mu.Lock()
	ev.Seq = len(t.events)
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// CrashImage tracks, for every page of one device, the last durable
// image and the volatile versions written since the covering barrier.
// It is not safe for concurrent use.
type CrashImage struct {
	ps int
	// base holds the durable page images; nil is an all-zero page.
	base [][]byte
	// pending holds each unforced page's volatile versions, oldest
	// first.  The slices alias CrashEvent data, which is immutable.
	pending map[PageNum][][]byte
}

// NewCrashImage returns the image of an all-zero device.
func NewCrashImage(pageSize int, numPages PageNum) *CrashImage {
	return &CrashImage{
		ps:      pageSize,
		base:    make([][]byte, numPages),
		pending: make(map[PageNum][][]byte),
	}
}

// Apply replays one request.
func (m *CrashImage) Apply(ev CrashEvent) {
	switch ev.Kind {
	case KindWrite:
		for i := 0; i < ev.N; i++ {
			p := ev.Start + PageNum(i)
			m.pending[p] = append(m.pending[p], ev.Data[i*m.ps:(i+1)*m.ps])
		}
	case KindForce:
		for i := 0; i < ev.N; i++ {
			m.promote(ev.Start + PageNum(i))
		}
	case KindForceAll:
		for p := range m.pending {
			if !ev.Skip[p] {
				m.promote(p)
			}
		}
	}
}

// promote makes page p's newest volatile version durable.
func (m *CrashImage) promote(p PageNum) {
	if vs := m.pending[p]; len(vs) > 0 {
		m.base[p] = vs[len(vs)-1]
		delete(m.pending, p)
	}
}

// Resolve returns the page images of one crash state, page by page
// (nil = zero page).  choose picks, for each unforced page, which
// version survives: -1 keeps the durable base, k >= 0 keeps pending
// version k.  Pages are offered in ascending order, so a stateful
// chooser sees a deterministic sequence.  The result aliases image and
// event memory and is valid only until the next Apply.
func (m *CrashImage) Resolve(choose func(p PageNum, versions int) int, scratch [][]byte) [][]byte {
	scratch = append(scratch[:0], m.base...)
	for _, p := range m.dirty() {
		vs := m.pending[p]
		if k := choose(p, len(vs)); k >= 0 {
			scratch[p] = vs[k]
		}
	}
	return scratch
}

// dirty lists the unforced pages in ascending order.
func (m *CrashImage) dirty() []PageNum {
	pages := make([]PageNum, 0, len(m.pending))
	for p := range m.pending {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// CrashDevice wraps a Device with crash simulation and fault injection.
// Every call is forwarded to the inner device, and every successful
// write and force is replayed into a CrashImage, so Crash can put each
// unforced page back to its last forced image.  The inner device's
// Stats see exactly the requests the caller issued: the wrapper reads
// no pre-images during a run.
//
// Tests wrap any backend in a CrashDevice to drive recovery; production
// code never sees one.  A CrashDevice is safe for concurrent use.
// Writes and forces are serialized so the image and the inner device
// agree on every page's order of versions.
type CrashDevice struct {
	inner Device
	ps    int

	// mu serializes writes and forces with the image, and guards the
	// fault state.  Rank 56 in the lattice: taken after any engine
	// latch, before the inner device's locks.
	mu    sync.Mutex
	img   *CrashImage // eos:guardedby mu
	trace *CrashTrace // eos:guardedby mu
	id    int         // eos:guardedby mu

	// Fault injection: when faultAfter reaches zero, every read and
	// write fails with faultErr until ClearFault.
	faultAfter int64 // eos:guardedby mu
	faultErr   error // eos:guardedby mu
	// tornPages >= 0 arms torn-write injection: the next WriteRun
	// writes only its first tornPages pages, then fails with tornErr.
	tornPages int   // eos:guardedby mu
	tornErr   error // eos:guardedby mu

	tracer func(TraceEvent) // eos:guardedby mu
}

// NewCrashDevice wraps inner, taking its current contents as the
// durable image.  Seeding reads the whole device once; the inner
// device's statistics are then reset, so wrap a device before the
// measurements that use it.
func NewCrashDevice(inner Device) (*CrashDevice, error) {
	ps, n := inner.PageSize(), inner.NumPages()
	img := NewCrashImage(ps, n)
	zero := make([]byte, ps)
	buf := make([]byte, migrateChunk*ps)
	for p := PageNum(0); p < n; p += migrateChunk {
		k := migrateChunk
		if rem := int(n - p); rem < k {
			k = rem
		}
		if err := inner.ReadPages(p, k, buf[:k*ps]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			if pg := buf[i*ps : (i+1)*ps]; !bytes.Equal(pg, zero) {
				img.base[p+PageNum(i)] = append([]byte(nil), pg...)
			}
		}
	}
	inner.ResetStats()
	return &CrashDevice{inner: inner, ps: ps, img: img, tornPages: -1}, nil
}

var _ Device = (*CrashDevice)(nil)

// Inner returns the wrapped device.
func (d *CrashDevice) Inner() Device { return d.inner }

// Record appends every later write and force to trace, tagged with id.
func (d *CrashDevice) Record(trace *CrashTrace, id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trace, d.id = trace, id
}

// FailAfter arms fault injection: after n more successful reads and
// writes, every read and write fails with err until ClearFault.
func (d *CrashDevice) FailAfter(n int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultAfter, d.faultErr = n, err
}

// TearWriteRun arms torn-write injection: the next WriteRun writes only
// its first pages pages, then fails with err — the state a crash
// mid-pwritev leaves behind.  Disarmed by ClearFault or by firing once.
func (d *CrashDevice) TearWriteRun(pages int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornPages, d.tornErr = pages, err
}

// ClearFault disarms both kinds of injection.
func (d *CrashDevice) ClearFault() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultErr = nil
	d.tornPages, d.tornErr = -1, nil
}

// fault consumes one request against the fault budget.
//
// eos:requires d.mu
func (d *CrashDevice) fault() error {
	if d.faultErr == nil {
		return nil
	}
	if d.faultAfter > 0 {
		d.faultAfter--
		return nil
	}
	return d.faultErr
}

// apply replays a successful request into the image and the trace.
//
// eos:requires d.mu
func (d *CrashDevice) apply(ev CrashEvent) {
	d.img.Apply(ev)
	if d.trace != nil {
		ev.Dev = d.id
		d.trace.add(ev)
	}
}

// DirtyPages reports how many written pages have not been forced.
func (d *CrashDevice) DirtyPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.img.pending)
}

// Crash simulates a power failure: every unforced page reverts to its
// last forced image, which is written to the inner device and forced.
// Statistics reset, as a restarted system observes a cold device.
func (d *CrashDevice) Crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inner.SetTracer(nil)
	defer d.inner.SetTracer(d.tracer)
	zero := make([]byte, d.ps)
	for _, p := range d.img.dirty() {
		pg := d.img.base[p]
		if pg == nil {
			pg = zero
		}
		if err := d.inner.WritePages(p, 1, pg); err != nil {
			return err
		}
		delete(d.img.pending, p)
	}
	if err := d.inner.ForceAll(); err != nil {
		return err
	}
	d.inner.ResetStats()
	return nil
}

// PageSize reports the wrapped device's page size.
func (d *CrashDevice) PageSize() int { return d.ps }

// NumPages reports the wrapped device's capacity.
func (d *CrashDevice) NumPages() PageNum { return d.inner.NumPages() }

// ReadPages forwards to the wrapped device.
func (d *CrashDevice) ReadPages(start PageNum, n int, buf []byte) error {
	d.mu.Lock()
	err := d.fault()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.inner.ReadPages(start, n, buf)
}

// Read forwards to the wrapped device.
func (d *CrashDevice) Read(start PageNum, n int) ([]byte, error) {
	d.mu.Lock()
	err := d.fault()
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return d.inner.Read(start, n)
}

// WritePages forwards to the wrapped device; the write stays volatile
// in the image until a Force covers it.
func (d *CrashDevice) WritePages(start PageNum, n int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.fault(); err != nil {
		return err
	}
	if err := d.inner.WritePages(start, n, buf); err != nil {
		return err
	}
	d.apply(CrashEvent{Kind: KindWrite, Start: start, N: n, Data: append([]byte(nil), buf...)})
	return nil
}

// WriteRun forwards to the wrapped device, tearing it if armed.
func (d *CrashDevice) WriteRun(start PageNum, pages [][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.fault(); err != nil {
		return err
	}
	var tornErr error
	if d.tornPages >= 0 {
		if d.tornPages < len(pages) {
			pages = pages[:d.tornPages]
		}
		tornErr = d.tornErr
		d.tornPages, d.tornErr = -1, nil
		if len(pages) == 0 {
			return tornErr
		}
	}
	if err := d.inner.WriteRun(start, pages); err != nil {
		return err
	}
	data := make([]byte, 0, len(pages)*d.ps)
	for _, p := range pages {
		data = append(data, p...)
	}
	d.apply(CrashEvent{Kind: KindWrite, Start: start, N: len(pages), Data: data})
	return tornErr
}

// Force forwards to the wrapped device, then makes the range durable
// in the image.
func (d *CrashDevice) Force(start PageNum, n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.inner.Force(start, n); err != nil {
		return err
	}
	d.apply(CrashEvent{Kind: KindForce, Start: start, N: n})
	return nil
}

// ForceAll forwards to the wrapped device, then makes every written
// page durable in the image.
func (d *CrashDevice) ForceAll() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.inner.ForceAll(); err != nil {
		return err
	}
	d.apply(CrashEvent{Kind: KindForceAll})
	return nil
}

// ForceAllExcept forwards to the wrapped device, then makes every
// written page durable in the image except those in skip.
func (d *CrashDevice) ForceAllExcept(skip map[PageNum]bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.inner.ForceAllExcept(skip); err != nil {
		return err
	}
	var cp map[PageNum]bool
	if len(skip) > 0 {
		cp = make(map[PageNum]bool, len(skip))
		for p := range skip {
			cp[p] = true
		}
	}
	d.apply(CrashEvent{Kind: KindForceAll, Skip: cp})
	return nil
}

// Stats forwards to the wrapped device.
func (d *CrashDevice) Stats() Stats { return d.inner.Stats() }

// ResetStats forwards to the wrapped device.
func (d *CrashDevice) ResetStats() { d.inner.ResetStats() }

// SetTracer forwards to the wrapped device.
func (d *CrashDevice) SetTracer(fn func(TraceEvent)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracer = fn
	d.inner.SetTracer(fn)
}

// Close forwards to the wrapped device.
func (d *CrashDevice) Close() error { return d.inner.Close() }
