package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eosdb/eos"
)

// editDurable: two closed-loop clients make small durable edits to
// 1 MB objects they own.  About 80% of requests are update
// transactions of 1–3 edits ended by a forced Commit; the rest are
// read-only transactions doing one 64 KB Txn.Read.  Both clients pause
// for a quiescent Checkpoint every editCkptEvery update transactions:
// the log truncates only at quiescence.
type editDurable struct {
	seed  int64
	names []string
	objs  [][]byte // oracle: the content every acknowledged commit left

	updates atomic.Int64
	gate    sync.RWMutex // held shared by each request, exclusively by the checkpoint
}

const (
	editObjects   = 64
	editObjSize   = 1 << 20
	editPageSize  = 4096
	editReadSize  = 64 << 10
	editMaxEdit   = 8 << 10
	editCkptEvery = 512
	editTailTxns  = 32
)

func (w *editDurable) spec() storeSpec {
	return storeSpec{
		pageSize:  editPageSize,
		dataPages: 256 * mb / editPageSize,
		logPages:  32 * mb / editPageSize,
		opts: eos.Options{
			CatalogPages: catalogPagesFor(editObjects, fullRoot(editPageSize), editPageSize),
		},
	}
}

func (w *editDurable) clients() int    { return 2 }
func (w *editDurable) primary() string { return "txn" }

func (w *editDurable) liveBytes() int64 {
	var n int64
	for _, o := range w.objs {
		n += int64(len(o))
	}
	return n
}

func (w *editDurable) notes() []string {
	return []string{
		fmt.Sprintf("objects: %d x %d KB, each owned by one client (object i by client i%%2)", editObjects, editObjSize>>10),
		"requests: 80% update txn (1-3 edits, each a 4 KB Replace 2/8, 1-8 KB Insert 2/8, 1-8 KB Append 1/8 or 1-8 KB Delete 3/8) + Commit; 20% read-only txn with one 64 KB Txn.Read",
		fmt.Sprintf("flush policy: every update forces its Commit (WAL force, then data+catalog barrier); quiescent Checkpoint every %d update txns with both clients paused", editCkptEvery),
		fmt.Sprintf("epilogue: Checkpoint, then %d update txns, then a kill image", editTailTxns),
	}
}

func (w *editDurable) populate(b *bench, st *store) error {
	w.names = make([]string, editObjects)
	w.objs = make([][]byte, editObjects)
	w.updates.Store(0)
	for i := range w.objs {
		w.names[i] = fmt.Sprintf("edit%03d", i)
		w.objs[i] = bytesOf(editObjSize, uint64(w.seed)<<20|uint64(i))
		o, err := st.s.Create(w.names[i], 0)
		if err != nil {
			return err
		}
		if err := o.Append(w.objs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *editDurable) run(b *bench, st *store, client int, deadline time.Time, r *recorder) {
	rng := rand.New(rand.NewSource(w.seed*1000 + int64(client)))
	var owned []int
	for i := client; i < editObjects; i += 2 {
		owned = append(owned, i)
	}
	for time.Now().Before(deadline) {
		w.gate.RLock()
		if rng.Intn(100) < 20 {
			w.read(b, st.s, r, client, rng, owned)
			w.gate.RUnlock()
			continue
		}
		err := w.update(b, st.s, r, client, rng, owned)
		w.gate.RUnlock()
		if err == nil && w.updates.Add(1)%editCkptEvery == 0 {
			w.gate.Lock()
			_ = b.checkpoint(r, st.s) // counted as failed in r
			w.gate.Unlock()
		}
	}
}

// edit is one planned edit of an update transaction.
type edit struct {
	kind string // "replace", "insert", "delete", "append"
	obj  int
	off  int64
	n    int64  // bytes deleted
	data []byte // bytes written
}

func (w *editDurable) plan(rng *rand.Rand, owned []int) []edit {
	k := 1 + rng.Intn(3)
	edits := make([]edit, 0, k)
	sizes := map[int]int64{}
	for len(edits) < k {
		i := owned[rng.Intn(len(owned))]
		size, ok := sizes[i]
		if !ok {
			size = int64(len(w.objs[i]))
		}
		n := int64(1 + rng.Intn(editMaxEdit))
		e := edit{obj: i}
		// Replace 2/8, Insert 2/8, Append 1/8, Delete 3/8: inserted,
		// appended and deleted sizes share one distribution, so object
		// sizes random-walk around 1 MB however long the run.
		switch k := rng.Intn(8); {
		case k < 2:
			e.kind, n = "replace", 4096
			e.off = rng.Int63n(size - n + 1)
		case k < 4:
			e.kind, e.off = "insert", rng.Int63n(size+1)
		case k < 5 || size < editObjSize/2: // never shrink an object below 512 KB
			e.kind, e.off = "append", size
		default:
			e.kind, e.off, e.n = "delete", rng.Int63n(size-n+1), n
			size -= n
		}
		if e.kind != "delete" {
			e.data = bytesOf(int(n), rng.Uint64())
			if e.kind != "replace" {
				size += n
			}
		}
		sizes[i] = size
		edits = append(edits, e)
	}
	return edits
}

func (w *editDurable) update(b *bench, s *eos.Store, r *recorder, client int, rng *rand.Rand, owned []int) error {
	edits := w.plan(rng, owned)
	err := b.request(r, client, "txn", func(req *opSpan) error {
		var tx *eos.Txn
		if err := b.call(req, "eos.begin", func() (err error) { tx, err = s.Begin(); return err }); err != nil {
			return err
		}
		defer r.countTxn(tx)
		for _, e := range edits {
			name := w.names[e.obj]
			err := b.call(req, "eos."+e.kind, func() error {
				switch e.kind {
				case "replace":
					return tx.Replace(name, e.off, e.data)
				case "insert":
					return tx.Insert(name, e.off, e.data)
				case "delete":
					return tx.Delete(name, e.off, e.n)
				default:
					return tx.Append(name, e.data)
				}
			})
			if err != nil {
				return abortWith(tx, err)
			}
		}
		return b.call(req, "eos.commit", tx.Commit)
	})
	if err != nil {
		return err
	}
	for _, e := range edits {
		o := w.objs[e.obj]
		switch e.kind {
		case "replace":
			copy(o[e.off:], e.data)
		case "insert", "append":
			o = slices.Insert(o, int(e.off), e.data...)
		case "delete":
			o = slices.Delete(o, int(e.off), int(e.off+e.n))
		}
		w.objs[e.obj] = o
		r.userWritten += int64(len(e.data))
	}
	return nil
}

func (w *editDurable) read(b *bench, s *eos.Store, r *recorder, client int, rng *rand.Rand, owned []int) {
	i := owned[rng.Intn(len(owned))]
	want := w.objs[i]
	off := rng.Int63n(int64(len(want)) - editReadSize + 1)
	var got []byte
	err := b.request(r, client, "read", func(req *opSpan) error {
		var tx *eos.Txn
		if err := b.call(req, "eos.begin", func() (err error) { tx, err = s.Begin(); return err }); err != nil {
			return err
		}
		defer r.countTxn(tx)
		if err := b.call(req, "eos.read", func() (err error) { got, err = tx.Read(w.names[i], off, editReadSize); return err }); err != nil {
			return abortWith(tx, err)
		}
		return b.call(req, "eos.commit", tx.Commit)
	})
	if err != nil {
		return
	}
	r.userRead += int64(len(got))
	if !bytes.Equal(got, want[off:off+editReadSize]) {
		r.mismatch(fmt.Errorf("%s: 64 KB read at %d differs from the oracle", w.names[i], off))
	}
}

// abortWith aborts tx after a failed call and returns the call's error.
func abortWith(tx *eos.Txn, err error) error {
	if aerr := tx.Abort(); aerr != nil {
		return fmt.Errorf("%w (abort: %v)", err, aerr)
	}
	return err
}

func (w *editDurable) tail(b *bench, st *store, r *recorder) error {
	if err := st.s.Checkpoint(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed*1000 + 999))
	all := make([]int, editObjects)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < editTailTxns; i++ {
		if err := w.update(b, st.s, r, 0, rng, all); err != nil {
			return err
		}
	}
	return nil
}

func (w *editDurable) verify(s *eos.Store) error {
	return verifyObjects(s, w.names, w.objs)
}

// verifyObjects checks that s holds exactly the named objects with the
// oracle's contents.
func verifyObjects(s *eos.Store, names []string, objs [][]byte) error {
	if got := s.List(); len(got) != len(names) {
		return fmt.Errorf("store lists %d objects, oracle has %d", len(got), len(names))
	}
	for i, name := range names {
		o, err := s.Open(name)
		if err != nil {
			return err
		}
		want := objs[i]
		if o.Size() != int64(len(want)) {
			return fmt.Errorf("%s: size %d, oracle %d", name, o.Size(), len(want))
		}
		buf := make([]byte, 1<<20)
		for off := int64(0); off < int64(len(want)); off += int64(len(buf)) {
			n := min(int64(len(buf)), int64(len(want))-off)
			if err := o.ReadAt(buf[:n], off); err != nil {
				return fmt.Errorf("%s: read at %d: %w", name, off, err)
			}
			if !bytes.Equal(buf[:n], want[off:off+n]) {
				return fmt.Errorf("%s: bytes at %d differ from the oracle", name, off)
			}
		}
	}
	return nil
}
