package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/eosdb/eos"
)

// ingestChurn: one closed-loop client creates objects of 256 KB, 512 KB
// or 1 MB, each in one transaction of 64 KB Txn.Append chunks with a
// forced Commit, and destroys the oldest ones to hold about 48 MB
// live.  A quiescent Checkpoint runs every 16 MB ingested.
type ingestChurn struct {
	seed  int64
	rng   *rand.Rand
	next  int
	sizes []int      // a seeded order of ingestSizes: each run of three objects has one of each
	live  []ingested // oracle: acknowledged objects, oldest first

	liveSize  int64
	sinceCkpt int64
}

// ingested is an acknowledged object; its content is regenerated from
// key for verification.
type ingested struct {
	name string
	size int
	key  uint64
}

const (
	ingestPageSize = 4096
	ingestChunk    = 64 << 10
	ingestLive     = 48 * mb
	ingestCkpt     = 16 * mb
	ingestTail     = 4
	// ingestMaxLive bounds the live object count: 48 MB of the smallest
	// objects plus the one in flight.
	ingestMaxLive = ingestLive/(256<<10) + 2
	// ingestRootEntries bounds a root: a 1 MB object written in 64 KB
	// appends has at most one segment per append.
	ingestRootEntries = (1 << 20) / ingestChunk
)

var ingestSizes = []int{256 << 10, 512 << 10, 1 << 20}

func (w *ingestChurn) spec() storeSpec {
	return storeSpec{
		pageSize:  ingestPageSize,
		dataPages: 160 * mb / ingestPageSize,
		logPages:  32 * mb / ingestPageSize,
		opts: eos.Options{
			CatalogPages: catalogPagesFor(ingestMaxLive, ingestRootEntries, ingestPageSize),
		},
	}
}

func (w *ingestChurn) clients() int     { return 1 }
func (w *ingestChurn) primary() string  { return "ingest" }
func (w *ingestChurn) liveBytes() int64 { return w.liveSize }

func (w *ingestChurn) notes() []string {
	return []string{
		fmt.Sprintf("objects: 256 KB / 512 KB / 1 MB, each created in one txn of %d KB Txn.Append chunks; oldest destroyed (one txn each) to hold %d MB live", ingestChunk>>10, ingestLive/mb),
		fmt.Sprintf("flush policy: every txn forces its Commit; quiescent Checkpoint every %d MB ingested", ingestCkpt/mb),
		fmt.Sprintf("setup: ingest to %d MB live through the same path, then Checkpoint", ingestLive/mb),
		fmt.Sprintf("epilogue: Checkpoint, then %d ingests (and their destroys), then a kill image", ingestTail),
	}
}

func (w *ingestChurn) populate(b *bench, st *store) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.next, w.live, w.liveSize, w.sinceCkpt = 0, nil, 0, 0
	r := newRecorder()
	for w.liveSize < ingestLive {
		if err := w.step(b, st.s, r, true); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestChurn) run(b *bench, st *store, client int, deadline time.Time, r *recorder) {
	for time.Now().Before(deadline) {
		if err := w.step(b, st.s, r, true); err != nil {
			return
		}
	}
}

// step ingests one object, destroys the oldest ones above the live
// target, and checkpoints every ingestCkpt bytes when ckpt is set.
// A failed request ends the client: the run then reports it.
func (w *ingestChurn) step(b *bench, s *eos.Store, r *recorder, ckpt bool) error {
	if err := w.ingest(b, s, r); err != nil {
		return err
	}
	for w.liveSize > ingestLive {
		if err := w.destroy(b, s, r); err != nil {
			return err
		}
	}
	if ckpt && w.sinceCkpt >= ingestCkpt {
		w.sinceCkpt = 0
		return b.checkpoint(r, s)
	}
	return nil
}

func (w *ingestChurn) ingest(b *bench, s *eos.Store, r *recorder) error {
	if w.next%len(ingestSizes) == 0 {
		w.sizes = w.rng.Perm(len(ingestSizes))
	}
	obj := ingested{
		name: fmt.Sprintf("in%07d", w.next),
		size: ingestSizes[w.sizes[w.next%len(ingestSizes)]],
		key:  uint64(w.seed)<<32 | uint64(w.next),
	}
	w.next++
	data := bytesOf(obj.size, obj.key)
	err := b.request(r, 0, "ingest", func(req *opSpan) error {
		var tx *eos.Txn
		if err := b.call(req, "eos.begin", func() (err error) { tx, err = s.Begin(); return err }); err != nil {
			return err
		}
		defer r.countTxn(tx)
		if err := b.call(req, "eos.create", func() error { return tx.Create(obj.name, 0) }); err != nil {
			return abortWith(tx, err)
		}
		for off := 0; off < obj.size; off += ingestChunk {
			if err := b.call(req, "eos.append", func() error { return tx.Append(obj.name, data[off:off+ingestChunk]) }); err != nil {
				return abortWith(tx, err)
			}
		}
		return b.call(req, "eos.commit", tx.Commit)
	})
	if err != nil {
		return err
	}
	w.live = append(w.live, obj)
	w.liveSize += int64(obj.size)
	w.sinceCkpt += int64(obj.size)
	r.userWritten += int64(obj.size)
	return nil
}

func (w *ingestChurn) destroy(b *bench, s *eos.Store, r *recorder) error {
	obj := w.live[0]
	err := b.request(r, 0, "destroy", func(req *opSpan) error {
		var tx *eos.Txn
		if err := b.call(req, "eos.begin", func() (err error) { tx, err = s.Begin(); return err }); err != nil {
			return err
		}
		defer r.countTxn(tx)
		if err := b.call(req, "eos.destroy", func() error { return tx.Destroy(obj.name) }); err != nil {
			return abortWith(tx, err)
		}
		return b.call(req, "eos.commit", tx.Commit)
	})
	if err != nil {
		return err
	}
	w.live = w.live[1:]
	w.liveSize -= int64(obj.size)
	return nil
}

func (w *ingestChurn) tail(b *bench, st *store, r *recorder) error {
	if err := st.s.Checkpoint(); err != nil {
		return err
	}
	for i := 0; i < ingestTail; i++ {
		if err := w.step(b, st.s, r, false); err != nil {
			return err
		}
	}
	return nil
}

// verify checks that s holds exactly the acknowledged live objects, each
// with its generated content.
func (w *ingestChurn) verify(s *eos.Store) error {
	names := s.List()
	want := make([]string, len(w.live))
	for i, o := range w.live {
		want[i] = o.name
	}
	sort.Strings(want)
	if len(names) != len(want) {
		return fmt.Errorf("store lists %d objects, %d acknowledged live", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			return fmt.Errorf("store lists %q where %q is acknowledged", names[i], want[i])
		}
	}
	buf := make([]byte, 1<<20)
	for _, obj := range w.live {
		o, err := s.Open(obj.name)
		if err != nil {
			return err
		}
		if o.Size() != int64(obj.size) {
			return fmt.Errorf("%s: size %d, acknowledged %d", obj.name, o.Size(), obj.size)
		}
		if err := o.ReadAt(buf[:obj.size], 0); err != nil {
			return fmt.Errorf("%s: %w", obj.name, err)
		}
		if !bytes.Equal(buf[:obj.size], bytesOf(obj.size, obj.key)) {
			return fmt.Errorf("%s: content differs from what was acknowledged", obj.name)
		}
	}
	return nil
}
