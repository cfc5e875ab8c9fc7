package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/eosdb/eos"
)

// readFragmented: two closed-loop clients read objects built from 4 KB
// appends, so every segment stays near the threshold T and each 4 MB
// object has about a thousand segments under a multi-level index that
// does not fit the default 256-frame pool.  O_DIRECT makes every pool
// miss a device read.  About 99% of requests are random 64 KB
// Object.ReadAt calls and 1% full-object Snapshot.WriteTo scans; there
// are no writes.
type readFragmented struct {
	seed  int64
	names []string
	objs  [][]byte
}

const (
	readObjects  = 16
	readObjSize  = 4 << 20
	readChunk    = 4 << 10
	readPageSize = 512
	readSize     = 64 << 10
	// readBuildCkpt is how many rounds of appends the set-up makes
	// between checkpoints.  Without them, pages the appends free wait in
	// the durability quarantine for a catalog barrier that never comes,
	// and a set-up can fail with ErrNoSpace (see README.md, open defects).
	readBuildCkpt = 64
)

func (w *readFragmented) spec() storeSpec {
	return storeSpec{
		pageSize:  readPageSize,
		dataPages: 192 * mb / readPageSize,
		logPages:  1 * mb / readPageSize,
		direct:    true,
		opts: eos.Options{
			CatalogPages: catalogPagesFor(readObjects, fullRoot(readPageSize), readPageSize),
		},
	}
}

func (w *readFragmented) clients() int    { return 2 }
func (w *readFragmented) primary() string { return "read" }
func (w *readFragmented) liveBytes() int64 {
	return int64(readObjects * readObjSize)
}

func (w *readFragmented) notes() []string {
	return []string{
		fmt.Sprintf("objects: %d x %d MB built by rounds of %d KB Object.Append calls (one per object), a Checkpoint every %d rounds; each object owned by one client", readObjects, readObjSize>>20, readChunk>>10, readBuildCkpt),
		"requests: 99% random 64 KB Object.ReadAt, 1% full-object Snapshot.WriteTo scan; no writes",
		"flush policy: none during the run (read-only); setup ends with a Checkpoint",
		"epilogue: 5 quiescent Checkpoints (nothing dirty), then a kill image",
	}
}

func (w *readFragmented) populate(b *bench, st *store) error {
	w.names = make([]string, readObjects)
	w.objs = make([][]byte, readObjects)
	objs := make([]*eos.Object, readObjects)
	for i := range objs {
		w.names[i] = fmt.Sprintf("frag%02d", i)
		w.objs[i] = bytesOf(readObjSize, uint64(w.seed)<<20|uint64(i))
		var err error
		if objs[i], err = st.s.Create(w.names[i], 0); err != nil {
			return err
		}
	}
	for off := 0; off < readObjSize; off += readChunk {
		for i, o := range objs {
			if err := o.Append(w.objs[i][off : off+readChunk]); err != nil {
				return fmt.Errorf("%s: append at %d: %w", w.names[i], off, err)
			}
		}
		if (off/readChunk+1)%readBuildCkpt == 0 {
			if err := st.s.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *readFragmented) run(b *bench, st *store, client int, deadline time.Time, r *recorder) {
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(client)))
	var owned []int
	for i := client; i < readObjects; i += 2 {
		owned = append(owned, i)
	}
	handles := make(map[int]*eos.Object)
	for _, i := range owned {
		o, err := st.s.Open(w.names[i])
		if err != nil {
			r.fail(err)
			return
		}
		handles[i] = o
	}
	buf := make([]byte, readSize)
	for time.Now().Before(deadline) {
		i := owned[rng.Intn(len(owned))]
		name, want := w.names[i], w.objs[i]
		if rng.Intn(100) == 0 {
			cmp := &compareWriter{want: want, ok: true}
			err := b.request(r, client, "scan", func(req *opSpan) error {
				var sn *eos.Snapshot
				if err := b.call(req, "eos.snapshot", func() (err error) { sn, err = st.s.OpenSnapshot(name); return err }); err != nil {
					return err
				}
				err := b.call(req, "eos.scan", func() error { _, err := sn.WriteTo(cmp); return err })
				if cerr := sn.Close(); err == nil {
					err = cerr
				}
				return err
			})
			if !cmp.ok || (err == nil && cmp.off != int64(len(want))) {
				r.mismatch(fmt.Errorf("%s: scan differs from the oracle at byte %d", name, cmp.off))
			} else if err == nil {
				r.userRead += cmp.off
			}
			continue
		}
		off := rng.Int63n(int64(len(want)) - readSize + 1)
		o := handles[i]
		err := b.request(r, client, "read", func(req *opSpan) error {
			return b.call(req, "eos.readat", func() error { return o.ReadAt(buf, off) })
		})
		if err == nil {
			r.userRead += readSize
			if !bytes.Equal(buf, want[off:off+readSize]) {
				r.mismatch(fmt.Errorf("%s: 64 KB read at %d differs from the oracle", name, off))
			}
		}
	}
}

// compareWriter checks a stream against the expected bytes as it
// arrives.
type compareWriter struct {
	want []byte
	off  int64
	ok   bool // no byte so far differed
}

func (c *compareWriter) Write(p []byte) (int, error) {
	end := c.off + int64(len(p))
	if end > int64(len(c.want)) || !bytes.Equal(p, c.want[c.off:end]) {
		c.ok = false
		return 0, fmt.Errorf("scan output differs from the oracle at byte %d", c.off)
	}
	c.off = end
	return len(p), nil
}

func (w *readFragmented) tail(b *bench, st *store, r *recorder) error { return nil }

func (w *readFragmented) verify(s *eos.Store) error {
	return verifyObjects(s, w.names, w.objs)
}
