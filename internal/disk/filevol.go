package disk

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// FileVolume is the real-I/O Device backend: pages live in an ordinary
// file and every request is a positional system call — pread/pwrite at
// page offsets (os.File.ReadAt/WriteAt), a vectored pwritev for
// WriteRun on Linux (with a portable sequential-write fallback), and
// fdatasync for Force.  Stats mirror the simulator's accounting, except
// that Micros records *measured* wall-clock time instead of modelled
// time, and Syncs counts the fdatasync calls the durability boundary
// actually issued.
//
// The file starts with one page-sized header block (geometry and
// flags); data page p lives at byte offset (p+1)*PageSize, so every
// transfer is page-aligned — the alignment O_DIRECT requires.
//
// Crash tests wrap a FileVolume in a CrashDevice, which reverts
// unforced pages exactly as on the simulator.
//
// A FileVolume is safe for concurrent use: reads and writes are
// positional (the kernel serializes overlapping extents) and the
// accounting sits under accMu, which is never held across a data
// transfer, so concurrent requests overlap in the kernel.
type FileVolume struct {
	f        *os.File
	path     string
	pageSize int
	numPages PageNum
	direct   bool

	closed atomic.Bool // set once by the first Close

	// accMu guards the accounting, exactly like the simulator's.  Held
	// only for counter updates, never across I/O.
	accMu   sync.Mutex
	stats   Stats   // eos:guardedby accMu
	headPos PageNum // eos:guardedby accMu -- page following the last transfer; -1 unknown

	tracer func(TraceEvent) // eos:guardedby accMu
}

// FileOptions configures a FileVolume.
type FileOptions struct {
	// Direct opens the file with O_DIRECT, bypassing the OS page cache.
	// Transfers then go through a bounce buffer aligned to
	// directAlign; the page size must be a multiple of 512.  Not every
	// filesystem supports it — Create/Open fail cleanly where the
	// kernel refuses.  Unsupported off Linux.
	Direct bool
}

const (
	fileMagic   = 0xE05D15C1
	fileVersion = 1
	// directAlign is the bounce-buffer alignment used for O_DIRECT:
	// 4096 satisfies every current logical block size.
	directAlign = 4096
	// flagDirectFormatted records in the header that the volume was
	// created for direct I/O (informational).
	flagDirectFormatted = 1 << 0
)

// CreateFileVolume creates (or truncates) a file-backed volume at path
// with the given geometry.  The file is sized up front — (numPages+1)
// pages — so writes never extend it and pwritev needs no append
// handling; unwritten pages read back as zeroes through the hole.
func CreateFileVolume(path string, pageSize int, numPages PageNum, opts FileOptions) (*FileVolume, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("disk: invalid page size %d", pageSize)
	}
	if numPages <= 0 {
		return nil, fmt.Errorf("disk: invalid volume size %d pages", numPages)
	}
	if opts.Direct && pageSize%512 != 0 {
		return nil, fmt.Errorf("disk: O_DIRECT requires a page size that is a multiple of 512, got %d", pageSize)
	}
	f, err := openFileVolume(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, opts.Direct)
	if err != nil {
		return nil, err
	}
	v := newFileVolume(f, path, pageSize, numPages, opts)
	if err := f.Truncate((int64(numPages) + 1) * int64(pageSize)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: presize %s: %w", path, err)
	}
	hdr := v.buffer(pageSize)
	binary.BigEndian.PutUint32(hdr[0:], fileMagic)
	binary.BigEndian.PutUint32(hdr[4:], fileVersion)
	binary.BigEndian.PutUint32(hdr[8:], uint32(pageSize))
	binary.BigEndian.PutUint64(hdr[12:], uint64(numPages))
	var flags uint32
	if opts.Direct {
		flags |= flagDirectFormatted
	}
	binary.BigEndian.PutUint32(hdr[20:], flags)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: write header %s: %w", path, err)
	}
	// Full sync (not fdatasync): the header and the file size are
	// metadata a reopen depends on.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("disk: sync %s: %w", path, err)
	}
	// The file's own durability means nothing if its directory entry is
	// lost: a crash right after create would roll the directory back and
	// the volume — log file included — simply would not exist.
	if err := SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return v, nil
}

// SyncDir fsyncs a directory, making the entries it holds (file
// creations and renames) durable.  POSIX durability is two-level:
// fsync(file) persists content and inode, but the name→inode mapping
// lives in the directory, which needs its own fsync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("disk: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("disk: sync dir %s: %w", dir, err)
	}
	return nil
}

// OpenFileVolume opens an existing file-backed volume, reading its
// geometry from the header block.
func OpenFileVolume(path string, opts FileOptions) (*FileVolume, error) {
	f, err := openFileVolume(path, os.O_RDWR, opts.Direct)
	if err != nil {
		return nil, err
	}
	// The geometry is unknown until the header is read; a 4096-byte
	// aligned probe satisfies O_DIRECT for every supported page size
	// of at least 512 bytes (smaller direct pages are rejected at
	// create time).
	probe := alignedBlock(directAlign)
	if n, err := f.ReadAt(probe, 0); err != nil && n < 24 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s: short volume header: %w", path, err)
	}
	if binary.BigEndian.Uint32(probe[0:]) != fileMagic ||
		binary.BigEndian.Uint32(probe[4:]) != fileVersion {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s is not a file volume", path)
	}
	pageSize := int(binary.BigEndian.Uint32(probe[8:]))
	numPages := PageNum(binary.BigEndian.Uint64(probe[12:]))
	if pageSize <= 0 || numPages <= 0 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s: corrupt geometry %d pages x %d bytes", path, numPages, pageSize)
	}
	if opts.Direct && pageSize%512 != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("disk: O_DIRECT requires a page size that is a multiple of 512, got %d", pageSize)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if want := (int64(numPages) + 1) * int64(pageSize); st.Size() < want {
		_ = f.Close()
		return nil, fmt.Errorf("disk: %s truncated: %d bytes, want %d", path, st.Size(), want)
	}
	return newFileVolume(f, path, pageSize, numPages, opts), nil
}

func newFileVolume(f *os.File, path string, pageSize int, numPages PageNum, opts FileOptions) *FileVolume {
	return &FileVolume{
		f:        f,
		path:     path,
		pageSize: pageSize,
		numPages: numPages,
		direct:   opts.Direct,
		headPos:  -1,
	}
}

// Path reports the backing file's path.
func (v *FileVolume) Path() string { return v.path }

// PageSize reports the volume's page size in bytes.
func (v *FileVolume) PageSize() int { return v.pageSize }

// NumPages reports the volume's capacity in pages.
func (v *FileVolume) NumPages() PageNum { return v.numPages }

// DirectIO reports whether the volume bypasses the OS page cache.
func (v *FileVolume) DirectIO() bool { return v.direct }

// Stats returns a snapshot of the accumulated I/O statistics.
func (v *FileVolume) Stats() Stats {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	return v.stats
}

// ResetStats zeroes the statistics counters and forgets the head
// position so the next request is charged a seek.
func (v *FileVolume) ResetStats() {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	v.stats = Stats{}
	v.headPos = -1
}

// SetTracer installs fn to observe every read and write; nil disables
// tracing.  Invoked with the accounting lock held; it must be fast and
// must not call back into the volume.
func (v *FileVolume) SetTracer(fn func(TraceEvent)) {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	v.tracer = fn
}

// off returns the byte offset of page p (the header occupies the first
// page-sized block).
func (v *FileVolume) off(p PageNum) int64 {
	return (int64(p) + 1) * int64(v.pageSize)
}

func (v *FileVolume) checkRange(start PageNum, n int) error {
	if n < 0 || start < 0 || PageNum(int64(start)+int64(n)) > v.numPages {
		return fmt.Errorf("%w: pages [%d,%d) of %d", ErrOutOfRange, start, int64(start)+int64(n), v.numPages)
	}
	return nil
}

// begin accounts one request: counters, seek detection, tracing.
// Wall-clock time is added separately by endTimed.
func (v *FileVolume) begin(start PageNum, n int, write, run bool) {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	if write {
		v.stats.Writes++
		v.stats.PagesWritten += int64(n)
		if run {
			v.stats.RunWrites++
			v.stats.CoalescedPages += int64(n - 1)
		}
	} else {
		v.stats.Reads++
		v.stats.PagesRead += int64(n)
	}
	seek := v.headPos != start
	if seek {
		v.stats.Seeks++
	}
	v.headPos = start + PageNum(n)
	if v.tracer != nil {
		v.tracer(TraceEvent{Write: write, Start: start, Pages: n, Seek: seek})
	}
}

// endTimed adds the measured duration of one request to the stats.
func (v *FileVolume) endTimed(began time.Time) {
	micros := time.Since(began).Microseconds()
	v.accMu.Lock()
	v.stats.Micros += micros
	v.accMu.Unlock()
}

// buffer returns a transfer buffer of n bytes: page-cache mode uses an
// ordinary allocation, direct mode an alignedBlock.
func (v *FileVolume) buffer(n int) []byte {
	if v.direct {
		return alignedBlock(n)
	}
	return make([]byte, n)
}

// alignedBlock allocates n bytes whose base address is directAlign-
// aligned, as O_DIRECT transfers require.
func alignedBlock(n int) []byte {
	raw := make([]byte, n+directAlign)
	off := int(directAlign-uintptr(unsafe.Pointer(&raw[0]))%directAlign) % directAlign
	return raw[off : off+n : off+n]
}

// ReadPages reads n physically contiguous pages starting at page start
// into buf (exactly n*PageSize bytes) with one pread.
func (v *FileVolume) ReadPages(start PageNum, n int, buf []byte) error {
	if len(buf) != n*v.pageSize {
		return fmt.Errorf("%w: got %d bytes for %d pages", ErrBadLength, len(buf), n)
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	v.begin(start, n, false, false)
	if n == 0 {
		return nil
	}
	began := time.Now()
	defer v.endTimed(began)
	if v.direct {
		bounce := alignedBlock(len(buf))
		if _, err := v.f.ReadAt(bounce, v.off(start)); err != nil {
			return fmt.Errorf("disk: pread %s: %w", v.path, err)
		}
		copy(buf, bounce)
		return nil
	}
	if _, err := v.f.ReadAt(buf, v.off(start)); err != nil {
		return fmt.Errorf("disk: pread %s: %w", v.path, err)
	}
	return nil
}

// Read allocates and returns the content of n contiguous pages.
func (v *FileVolume) Read(start PageNum, n int) ([]byte, error) {
	buf := make([]byte, n*v.pageSize)
	if err := v.ReadPages(start, n, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WritePages writes n physically contiguous pages starting at page
// start with one pwrite.  The write is volatile until a Force covers
// it.
func (v *FileVolume) WritePages(start PageNum, n int, buf []byte) error {
	if len(buf) != n*v.pageSize {
		return fmt.Errorf("%w: got %d bytes for %d pages", ErrBadLength, len(buf), n)
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	v.begin(start, n, true, false)
	if n == 0 {
		return nil
	}
	began := time.Now()
	defer v.endTimed(began)
	if v.direct {
		bounce := alignedBlock(len(buf))
		copy(bounce, buf)
		buf = bounce
	}
	if _, err := v.f.WriteAt(buf, v.off(start)); err != nil {
		return fmt.Errorf("disk: pwrite %s: %w", v.path, err)
	}
	return nil
}

// WriteRun gather-writes len(pages) physically contiguous pages
// starting at page start in a single vectored request (pwritev on
// Linux; a sequential per-page fallback elsewhere).  Each element must
// be exactly one page.
func (v *FileVolume) WriteRun(start PageNum, pages [][]byte) error {
	n := len(pages)
	for i, p := range pages {
		if len(p) != v.pageSize {
			return fmt.Errorf("%w: run page %d has %d bytes, want %d", ErrBadLength, i, len(p), v.pageSize)
		}
	}
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	v.begin(start, n, true, true)
	if n == 0 {
		return nil
	}
	began := time.Now()
	defer v.endTimed(began)
	if v.direct {
		// Direct mode coalesces the run into one aligned buffer and a
		// single pwrite: the copy is the price of alignment, and a
		// lone contiguous transfer is what O_DIRECT rewards.
		bounce := alignedBlock(len(pages) * v.pageSize)
		for i, p := range pages {
			copy(bounce[i*v.pageSize:], p)
		}
		if _, err := v.f.WriteAt(bounce, v.off(start)); err != nil {
			return fmt.Errorf("disk: pwrite %s: %w", v.path, err)
		}
		return nil
	}
	if err := pwritevFull(v.f, pages, v.off(start)); err != nil {
		return fmt.Errorf("disk: pwritev %s: %w", v.path, err)
	}
	return nil
}

// Force makes the current contents of n pages starting at start
// durable via fdatasync.  fdatasync has no byte-range form, so the
// whole file's data is synced.
func (v *FileVolume) Force(start PageNum, n int) error {
	if err := v.checkRange(start, n); err != nil {
		return err
	}
	return v.sync()
}

// ForceAll makes every written page durable.
func (v *FileVolume) ForceAll() error { return v.sync() }

// ForceAllExcept syncs like ForceAll: fdatasync cannot leave pages
// out.  The skipped pages stay volatile only under CrashDevice, which
// is where the transaction layer's contract is checked.
func (v *FileVolume) ForceAllExcept(map[PageNum]bool) error { return v.sync() }

// sync issues the backend's durability barrier (fdatasync on Linux)
// and counts it.
func (v *FileVolume) sync() error {
	began := time.Now()
	err := fdatasyncFile(v.f)
	v.accMu.Lock()
	v.stats.Syncs++
	v.stats.Micros += time.Since(began).Microseconds()
	v.accMu.Unlock()
	if err != nil {
		return fmt.Errorf("disk: fdatasync %s: %w", v.path, err)
	}
	return nil
}

// Close releases the file handle.  Idempotent.
func (v *FileVolume) Close() error {
	if !v.closed.CompareAndSwap(false, true) {
		return nil
	}
	return v.f.Close()
}
