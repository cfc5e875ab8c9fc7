// Package disk provides a simulated disk volume used as the storage
// substrate for the EOS large object manager and the baseline systems.
//
// The paper's evaluation (Biliris, ICDE 1992) reasons about storage cost
// in terms of disk seeks and page transfers: "Good sequential access means
// that the I/O rates in accessing a large object must be close to transfer
// rates", and the buddy system's headline claim is "at most one disk
// access ... regardless of the segment size".  The Volume type therefore
// accounts for exactly those quantities: it tracks every read and write,
// whether it required a head seek (the request did not continue from the
// previous physical position), how many pages moved, and the modelled
// elapsed time under a parametric cost model.
//
// Data is held in memory; the simulation is about cost accounting, not
// persistence.  Which writes survive a crash is decided by CrashDevice
// (crash.go), which wraps a Volume or a FileVolume alike for the
// recovery tests; a Volume's Force calls are range-checked no-ops.
//
// A Volume is safe for concurrent use, and reads proceed in parallel:
// the page array is guarded by an RWMutex (reads share, writes exclude)
// while the seek/transfer accounting sits under its own short-lived
// mutex, so concurrent multi-page transfers overlap their copies.  For
// concurrency experiments, SetLatency additionally makes every request
// sleep its modelled duration, bounded by a configurable number of
// outstanding requests — queue depth 1 models the paper's single-arm
// disk (and the fully serialized read path the original single-mutex
// design enforced), larger depths model a modern device.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common volume errors.
var (
	// ErrOutOfRange is returned when a page access falls outside the volume.
	ErrOutOfRange = errors.New("disk: page access out of range")
	// ErrBadLength is returned when a buffer length is not a whole number
	// of pages.
	ErrBadLength = errors.New("disk: buffer length not a multiple of page size")
)

// CostModel describes the simulated device timing.  All durations are in
// microseconds so that integer arithmetic is exact and deterministic.
type CostModel struct {
	// SeekMicros is the average cost of repositioning the head, charged
	// whenever a request does not start at the page following the previous
	// request's last page.
	SeekMicros int64
	// RotationalMicros is the average rotational delay, charged together
	// with every seek.
	RotationalMicros int64
	// TransferMicrosPerPage is the time to transfer one page once the head
	// is positioned.
	TransferMicrosPerPage int64
}

// DefaultCostModel models a circa-1992 disk (the paper's SparcStation
// environment): 16 ms average seek, 8.3 ms rotational delay (3600 rpm),
// and roughly 1.7 ms to transfer a 4 KB page (~2.4 MB/s media rate).
func DefaultCostModel() CostModel {
	return CostModel{
		SeekMicros:            16000,
		RotationalMicros:      8300,
		TransferMicrosPerPage: 1700,
	}
}

// Stats accumulates I/O accounting for a Volume.  Counters are cumulative;
// use Volume.ResetStats or subtract snapshots to measure an interval.
type Stats struct {
	Reads          int64 // read requests
	Writes         int64 // write requests
	PagesRead      int64 // pages transferred by reads
	PagesWritten   int64 // pages transferred by writes
	Seeks          int64 // requests that required repositioning the head
	Micros         int64 // modelled elapsed time in microseconds
	RunWrites      int64 // vectored WriteRun requests (counted in Writes too)
	CoalescedPages int64 // pages beyond the first in each WriteRun — seeks saved by coalescing
	Syncs          int64 // durability barriers actually issued (fdatasync); 0 on the simulator
}

// Accesses returns the total number of I/O requests.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// PagesMoved returns the total number of pages transferred.
func (s Stats) PagesMoved() int64 { return s.PagesRead + s.PagesWritten }

// Sub returns the interval statistics s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Reads:          s.Reads - prev.Reads,
		Writes:         s.Writes - prev.Writes,
		PagesRead:      s.PagesRead - prev.PagesRead,
		PagesWritten:   s.PagesWritten - prev.PagesWritten,
		Seeks:          s.Seeks - prev.Seeks,
		Micros:         s.Micros - prev.Micros,
		RunWrites:      s.RunWrites - prev.RunWrites,
		CoalescedPages: s.CoalescedPages - prev.CoalescedPages,
		Syncs:          s.Syncs - prev.Syncs,
	}
}

// String renders the statistics compactly for experiment tables.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d pagesIn=%d pagesOut=%d seeks=%d time=%.2fms",
		s.Reads, s.Writes, s.PagesRead, s.PagesWritten, s.Seeks, float64(s.Micros)/1000)
}

// PageNum identifies a page within a volume.  The paper's allocation map
// supports segment sizes up to 2^63 pages; a signed 64-bit page number is
// more than sufficient.
type PageNum int64

// Volume is a simulated disk: a linear array of fixed-size pages with
// seek/transfer cost accounting.
//
// A Volume is safe for concurrent use; each request is atomic, and read
// requests overlap each other.
type Volume struct {
	mu       sync.RWMutex // guards data
	pageSize int
	numPages PageNum
	data     []byte // eos:guardedby mu -- numPages * pageSize

	// accMu guards the accounting state below.  It is always acquired
	// while holding mu (shared or exclusive) and held only for the few
	// counter updates, so concurrent multi-page reads serialize on it
	// briefly but overlap their copies.
	accMu   sync.Mutex
	model   CostModel // eos:guardedby accMu
	stats   Stats     // eos:guardedby accMu
	headPos PageNum   // eos:guardedby accMu -- page following the last transferred page; -1 unknown

	tracer func(TraceEvent)

	// Latency simulation (SetLatency): every request sleeps its modelled
	// duration; latSem bounds the number of outstanding requests.
	latOn  bool
	latSem chan struct{}
}

// NewVolume creates a volume of numPages pages of pageSize bytes each,
// using the supplied cost model.  pageSize must be positive; numPages must
// be positive.
func NewVolume(pageSize int, numPages PageNum, model CostModel) (*Volume, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("disk: invalid page size %d", pageSize)
	}
	if numPages <= 0 {
		return nil, fmt.Errorf("disk: invalid volume size %d pages", numPages)
	}
	return &Volume{
		pageSize: pageSize,
		numPages: numPages,
		data:     make([]byte, int64(numPages)*int64(pageSize)),
		model:    model,
		headPos:  -1,
	}, nil
}

// MustNewVolume is NewVolume that panics on error, for tests and examples
// with constant parameters.
func MustNewVolume(pageSize int, numPages PageNum, model CostModel) *Volume {
	v, err := NewVolume(pageSize, numPages, model)
	if err != nil {
		panic(err)
	}
	return v
}

// PageSize reports the volume's page size in bytes.
func (v *Volume) PageSize() int { return v.pageSize }

// NumPages reports the volume's capacity in pages.
func (v *Volume) NumPages() PageNum { return v.numPages }

// Stats returns a snapshot of the accumulated I/O statistics.
func (v *Volume) Stats() Stats {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	return v.stats
}

// ResetStats zeroes the statistics counters and forgets the head position
// so the next request is charged a seek.
func (v *Volume) ResetStats() {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	v.stats = Stats{}
	v.headPos = -1
}

// SetLatency enables or disables latency simulation.  When enabled, every
// read and write request sleeps its modelled duration (the same
// microseconds charged to Stats.Micros), and at most parallelism requests
// are outstanding at once: 1 models the single-arm 1992 disk — and the
// fully serialized transfer path a global volume mutex used to enforce —
// while higher values model a device with internal parallelism.  Must not
// be toggled while requests are in flight.
func (v *Volume) SetLatency(enabled bool, parallelism int) {
	v.latOn = enabled
	v.latSem = nil
	if enabled && parallelism > 0 {
		v.latSem = make(chan struct{}, parallelism)
	}
}

// TraceEvent describes one I/O request, emitted to the tracer if one is
// installed.  Tooling uses traces to visualize access patterns — e.g.
// confirming that a sequential object scan issues a handful of large
// contiguous requests rather than per-page seeks.
type TraceEvent struct {
	Write bool
	Start PageNum
	Pages int
	Seek  bool // the request repositioned the head
}

// SetTracer installs fn to observe every read and write; nil disables
// tracing.  The tracer is invoked synchronously with the accounting lock
// held, so it must be fast and must not call back into the volume.
func (v *Volume) SetTracer(fn func(TraceEvent)) {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	v.tracer = fn
}

func (v *Volume) checkRange(start PageNum, n int) error {
	if n < 0 || start < 0 || PageNum(int64(start)+int64(n)) > v.numPages {
		return fmt.Errorf("%w: pages [%d,%d) of %d", ErrOutOfRange, start, int64(start)+int64(n), v.numPages)
	}
	return nil
}

// charge accounts one request and returns its modelled duration in
// microseconds.  Caller holds v.accMu.
//
// eos:requires v.accMu
func (v *Volume) charge(start PageNum, n int, write bool) int64 {
	if n == 0 {
		return 0
	}
	var micros int64
	seek := v.headPos != start
	if seek {
		v.stats.Seeks++
		micros += v.model.SeekMicros + v.model.RotationalMicros
	}
	micros += int64(n) * v.model.TransferMicrosPerPage
	v.stats.Micros += micros
	v.headPos = start + PageNum(n)
	if v.tracer != nil {
		v.tracer(TraceEvent{Write: write, Start: start, Pages: n, Seek: seek})
	}
	return micros
}

// admit blocks until the latency-mode device accepts another outstanding
// request; the returned function completes it (after sleeping the
// modelled duration recorded by the caller).
func (v *Volume) admit() func(micros int64) {
	if !v.latOn {
		return nil
	}
	if v.latSem != nil {
		v.latSem <- struct{}{}
	}
	return func(micros int64) {
		if micros > 0 {
			time.Sleep(time.Duration(micros) * time.Microsecond)
		}
		if v.latSem != nil {
			<-v.latSem
		}
	}
}

// ReadPages reads n physically contiguous pages starting at page start
// into buf, which must be exactly n*PageSize bytes.  A single multi-page
// read costs at most one seek — this is the contiguity property the EOS
// segment design exists to exploit.  Concurrent reads overlap: only the
// brief accounting update is serialized.
func (v *Volume) ReadPages(start PageNum, n int, buf []byte) error {
	if len(buf) != n*v.pageSize {
		return fmt.Errorf("%w: got %d bytes for %d pages", ErrBadLength, len(buf), n)
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	done := v.admit()
	v.mu.RLock()
	v.accMu.Lock()
	v.stats.Reads++
	v.stats.PagesRead += int64(n)
	micros := v.charge(start, n, false)
	v.accMu.Unlock()
	off := int64(start) * int64(v.pageSize)
	copy(buf, v.data[off:off+int64(n)*int64(v.pageSize)])
	v.mu.RUnlock()
	if done != nil {
		done(micros)
	}
	return nil
}

// Read allocates and returns the content of n contiguous pages.
func (v *Volume) Read(start PageNum, n int) ([]byte, error) {
	buf := make([]byte, n*v.pageSize)
	if err := v.ReadPages(start, n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WritePages writes n physically contiguous pages starting at page start.
// buf must be exactly n*PageSize bytes.
func (v *Volume) WritePages(start PageNum, n int, buf []byte) error {
	if len(buf) != n*v.pageSize {
		return fmt.Errorf("%w: got %d bytes for %d pages", ErrBadLength, len(buf), n)
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	done := v.admit()
	v.mu.Lock()
	v.accMu.Lock()
	v.stats.Writes++
	v.stats.PagesWritten += int64(n)
	micros := v.charge(start, n, true)
	v.accMu.Unlock()
	off := int64(start) * int64(v.pageSize)
	copy(v.data[off:], buf)
	v.mu.Unlock()
	if done != nil {
		done(micros)
	}
	return nil
}

// WriteRun gather-writes len(pages) physically contiguous pages starting
// at page start in a single request — at most one seek, however many
// pages the run holds.  Each element must be exactly one page.  This is
// the coalescing entry point the buffer pool uses when write-back finds
// adjacent dirty pages: n single-page WritePages calls cost up to n
// seeks, one WriteRun costs one.
func (v *Volume) WriteRun(start PageNum, pages [][]byte) error {
	n := len(pages)
	for i, p := range pages {
		if len(p) != v.pageSize {
			return fmt.Errorf("%w: run page %d has %d bytes, want %d", ErrBadLength, i, len(p), v.pageSize)
		}
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	done := v.admit()
	v.mu.Lock()
	v.accMu.Lock()
	v.stats.Writes++
	v.stats.PagesWritten += int64(n)
	v.stats.RunWrites++
	v.stats.CoalescedPages += int64(n - 1)
	micros := v.charge(start, n, true)
	v.accMu.Unlock()
	for i, p := range pages {
		off := (int64(start) + int64(i)) * int64(v.pageSize)
		copy(v.data[off:], p)
	}
	v.mu.Unlock()
	if done != nil {
		done(micros)
	}
	return nil
}

// Force checks the range and returns: the simulator's pages have no
// volatile state to make durable.  Crash semantics live in CrashDevice.
func (v *Volume) Force(start PageNum, n int) error {
	return v.checkRange(start, n)
}

// ForceAll is a no-op on the simulator; see Force.
func (v *Volume) ForceAll() error { return nil }

// ForceAllExcept is a no-op on the simulator; see Force.
func (v *Volume) ForceAllExcept(map[PageNum]bool) error { return nil }

// Close releases the volume.  The simulator holds no external
// resources, so Close only exists to satisfy Device.
func (v *Volume) Close() error { return nil }
