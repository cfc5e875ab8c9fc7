package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
	"github.com/eosdb/eos/internal/lob"
)

// storeSpec is the geometry and options a workload runs with.  The
// benchmark builds the volumes itself (disk.CreateFileVolume /
// OpenFileVolume) and hands them to eos.Format / eos.Open, so the
// timing wrapper can sit between the store and the files.
type storeSpec struct {
	pageSize            int
	dataPages, logPages disk.PageNum
	direct              bool
	opts                eos.Options // CatalogPages must be set
}

// metaPages is the header+catalog region: the header page and two
// catalog slots of CatalogPages each.
func (sp storeSpec) metaPages() disk.PageNum { return disk.PageNum(1 + 2*sp.opts.CatalogPages) }

// Catalog sizing.  The store rewrites its whole catalog slot on every
// durable commit and fails a commit whose descriptors do not fit, so a
// workload reserves room for its largest descriptor count: per object
// an entry header (14 bytes), its name (at most 16 bytes here) and a
// descriptor of 40 header bytes plus 16 per root entry; per slot a
// 20-byte slot header and a 4-byte count.
func catalogPagesFor(objects, rootEntries, pageSize int) int {
	n := 20 + 4 + objects*(14+16+40+16*rootEntries)
	return (n + pageSize - 1) / pageSize
}

// fullRoot is the most entries a root can hold: one index node's worth
// (the store's default MaxRootEntries), 6 header bytes, 16 per entry.
func fullRoot(pageSize int) int { return (pageSize - 6) / 16 }

const (
	dataFile = "data.eos"
	logFile  = "log.eos"
)

// store is one open store and the volumes under it.
type store struct {
	dir         string
	s           *eos.Store
	data, log   *disk.FileVolume
	tdata, tlog *timedDevice // nil when untraced
}

// devices returns what the store is handed: the raw volumes, or the
// timing wrappers around them when tracing.
func (b *bench) devices(st *store) (disk.Device, disk.Device) {
	if b.tr == nil {
		return st.data, st.log
	}
	st.tdata = newTimedDevice(st.data, 0, b.spec.metaPages(), b.tr)
	st.tlog = newTimedDevice(st.log, 1, 0, b.tr)
	return st.tdata, st.tlog
}

// create formats a fresh store under dir.
func (b *bench) create(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fo := disk.FileOptions{Direct: b.spec.direct}
	st := &store{dir: dir}
	var err error
	if st.data, err = disk.CreateFileVolume(filepath.Join(dir, dataFile), b.spec.pageSize, b.spec.dataPages, fo); err != nil {
		return nil, err
	}
	if st.log, err = disk.CreateFileVolume(filepath.Join(dir, logFile), b.spec.pageSize, b.spec.logPages, fo); err != nil {
		st.data.Close()
		return nil, err
	}
	dd, ld := b.devices(st)
	if st.s, err = eos.Format(dd, ld, b.spec.opts); err != nil {
		st.closeVolumes()
		return nil, fmt.Errorf("format: %w", err)
	}
	return st, nil
}

// open opens the store under dir with crash recovery — what eos.OpenAt
// does, with the volumes built here.
func (b *bench) open(dir string) (*store, error) {
	fo := disk.FileOptions{Direct: b.spec.direct}
	st := &store{dir: dir}
	var err error
	if st.data, err = disk.OpenFileVolume(filepath.Join(dir, dataFile), fo); err != nil {
		return nil, err
	}
	if st.log, err = disk.OpenFileVolume(filepath.Join(dir, logFile), fo); err != nil {
		st.data.Close()
		return nil, err
	}
	dd, ld := b.devices(st)
	if st.s, err = eos.Open(dd, ld, b.spec.opts); err != nil {
		st.closeVolumes()
		return nil, fmt.Errorf("open: %w", err)
	}
	return st, nil
}

func (st *store) closeVolumes() {
	st.data.Close()
	st.log.Close()
}

// close closes the store, then its volumes (eos.Format/Open leave the
// volumes to their builder).
func (st *store) close() error {
	err := st.s.Close()
	if cerr := st.data.Close(); err == nil {
		err = cerr
	}
	if cerr := st.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyDir copies the volume files of the store in src as they stand
// into dst.  Copied from a live store, this is a process-kill image:
// everything written has reached the files, nothing more is done.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{dataFile, logFile} {
		if err := copySparse(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}

// copySparse copies a volume file, leaving holes where src has zero
// blocks (volumes are mostly unwritten or zeroed), and syncs the copy
// so its write-back does not run into what is timed next.
func copySparse(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	buf, zero := make([]byte, 1<<20), make([]byte, 1<<20)
	var off int64
	for {
		n, rerr := io.ReadFull(in, buf)
		if n > 0 && !bytes.Equal(buf[:n], zero[:n]) {
			if _, err := out.WriteAt(buf[:n], off); err != nil {
				out.Close()
				return err
			}
		}
		off += int64(n)
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			out.Close()
			return rerr
		}
	}
	if err := out.Truncate(off); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sample is the layer state at one boundary of the measured phase.
type sample struct {
	st          eos.Stats
	log         disk.Stats // the log volume's own statistics
	dataW, logW devCounters
	at          time.Time
}

func (b *bench) sample(st *store) sample {
	sm := sample{st: st.s.Stats(), log: st.log.Stats(), at: time.Now()}
	if st.tdata != nil {
		sm.dataW, sm.logW = st.tdata.counters(), st.tlog.counters()
	}
	return sm
}

// recorder is one client's tally.  Each client owns its recorder; the
// harness merges them after the clients stop.
type recorder struct {
	lat                   map[string][]int64     // request kind -> latencies (ns)
	done                  map[string][]time.Time // request kind -> completion times
	attempted, failed     int64
	userRead, userWritten int64
	txnLOB                lob.Stats // lob counters of this client's transactions
	errs                  []error   // first few failures, for the report
	mismatches            []error   // oracle disagreements: any one fails the run
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]int64), done: make(map[string][]time.Time)}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	for k, v := range o.done {
		r.done[k] = append(r.done[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.userRead += o.userRead
	r.userWritten += o.userWritten
	addLOB(&r.txnLOB, o.txnLOB)
	r.errs = append(r.errs, o.errs...)
	r.mismatches = append(r.mismatches, o.mismatches...)
}

// countTxn adds tx's lob counters.  A transaction runs its operations
// through a lob manager of its own, whose counts Store.Stats does not
// include.
func (r *recorder) countTxn(tx *eos.Txn) { addLOB(&r.txnLOB, tx.LOBStats()) }

// mismatch records an output that disagrees with the oracle.
func (r *recorder) mismatch(err error) { r.mismatches = append(r.mismatches, err) }

// fail counts a failed request.  Failed requests are never retried.
func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, err)
	}
}

// request times one closed-loop request: fn runs the public calls,
// wrapping each in b.call.  The latency is filed under kind only when
// the request succeeds.
func (b *bench) request(r *recorder, client int, kind string, fn func(req *opSpan) error) error {
	req := b.tr.begin(client, "req."+kind, false)
	t0 := time.Now()
	err := fn(req)
	t1 := time.Now()
	b.tr.end(req)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", kind, err))
		return err
	}
	r.lat[kind] = append(r.lat[kind], int64(t1.Sub(t0)))
	r.done[kind] = append(r.done[kind], t1)
	return nil
}

// call runs one public eos call inside req under its own span.
func (b *bench) call(req *opSpan, name string, fn func() error) error {
	c := b.tr.call(req, name)
	err := fn()
	b.tr.end(c)
	return err
}

// checkpoint times one quiescent checkpoint into r.
func (b *bench) checkpoint(r *recorder, s *eos.Store) error {
	op := b.tr.begin(-1, "eos.checkpoint", true)
	t0 := time.Now()
	err := s.Checkpoint()
	ns := int64(time.Since(t0))
	b.tr.end(op)
	r.attempted++
	if err != nil {
		r.fail(fmt.Errorf("checkpoint: %w", err))
		return err
	}
	r.lat["checkpoint"] = append(r.lat["checkpoint"], ns)
	return nil
}
