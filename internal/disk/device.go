package disk

// Device is the volume abstraction the rest of the engine is written
// against: a linear array of fixed-size pages with contiguous multi-page
// transfers, vectored run writes, an explicit durability boundary
// (Force*) and I/O accounting.  Two backends exist:
//
//   - Volume, the simulator: pages live in memory and every request is
//     charged against a parametric seek/transfer cost model.  It is the
//     deterministic substrate for the paper-reproduction experiments.
//
//   - FileVolume, the real backend: pages live in an ordinary file,
//     reads and writes are positional pread/pwrite at page offsets,
//     WriteRun is a vectored pwritev, and Force is fdatasync.  Stats
//     record measured wall-clock time instead of modelled time, so the
//     same benchmarks produce hardware-grounded numbers.
//
// CrashDevice wraps either backend for the recovery tests: it decides
// which writes survive a simulated power cut and injects faults (see
// crash.go).
//
// All three are safe for concurrent use.  Code written against Device
// (the buffer pool, the WAL, the buddy allocator, the LOB manager, the
// store) runs unmodified on any of them.
type Device interface {
	// PageSize reports the page size in bytes.
	PageSize() int
	// NumPages reports the capacity in pages.
	NumPages() PageNum

	// ReadPages reads n physically contiguous pages starting at start
	// into buf, which must be exactly n*PageSize bytes.
	ReadPages(start PageNum, n int, buf []byte) error
	// Read allocates and returns the content of n contiguous pages.
	Read(start PageNum, n int) ([]byte, error)
	// WritePages writes n physically contiguous pages starting at
	// start.  The write is volatile until a Force covers it.
	WritePages(start PageNum, n int, buf []byte) error
	// WriteRun gather-writes len(pages) contiguous pages starting at
	// start in one request; each element must be exactly one page.
	WriteRun(start PageNum, pages [][]byte) error

	// Force makes the current contents of n pages starting at start
	// durable: they survive a crash.
	Force(start PageNum, n int) error
	// ForceAll makes every written page durable.
	ForceAll() error
	// ForceAllExcept makes every written page durable except those in
	// skip, which stay volatile (see the transaction layer for why).
	ForceAllExcept(skip map[PageNum]bool) error

	// Stats returns a snapshot of the accumulated I/O statistics.
	Stats() Stats
	// ResetStats zeroes the counters and forgets the head position.
	ResetStats()
	// SetTracer installs fn to observe every request; nil disables.
	SetTracer(fn func(TraceEvent))

	// Close releases the backend's resources (a no-op for the
	// simulator).  The device must not be used afterwards.
	Close() error
}

// Compile-time interface checks: both backends implement Device.
var (
	_ Device = (*Volume)(nil)
	_ Device = (*FileVolume)(nil)
)
