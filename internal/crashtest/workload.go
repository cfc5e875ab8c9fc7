package crashtest

import (
	"fmt"
	"math/rand"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// Commit is one oracle mark: a transaction whose Commit call entered at
// BeginSeq and returned at RetSeq, leaving the committed store content
// described by State (object name -> content hash).
//
// Both Commit and CommitNoForce force the log before returning, so for
// a crash at trace position P:
//
//   - every commit with RetSeq <= P is durably in the log (its commit
//     record was covered by a returned force) and MUST be visible;
//   - a commit with BeginSeq > P cannot have written its commit record
//     yet and MUST be invisible;
//   - in between, visibility depends on which unforced log pages the
//     power cut preserved.
type Commit struct {
	BeginSeq int
	RetSeq   int
	State    map[string]uint64
	// Sizes mirrors State with object lengths, for violation diagnostics.
	Sizes map[string]int
	// Contents is the full committed content, kept for byte-level
	// violation diagnostics.
	Contents map[string][]byte
}

// Oracle is the ground truth the sweep validates recovered states
// against.
type Oracle struct {
	// P0 is the trace position at which the freshly formatted store was
	// durable; crash states before it are not meaningful.
	P0 int
	// Commits holds one mark per successful commit, in commit order.
	Commits []Commit
}

// StateAt returns the committed content after k commits (k = 0 is the
// empty, freshly formatted store).
func (o *Oracle) StateAt(k int) map[string]uint64 {
	if k == 0 {
		return map[string]uint64{}
	}
	return o.Commits[k-1].State
}

// Bounds reports the inclusive range of commit counts a crash at trace
// position p may legally recover to.
func (o *Oracle) Bounds(p int) (minK, maxK int) {
	for _, c := range o.Commits {
		if c.RetSeq <= p {
			minK++
		}
		if c.BeginSeq <= p {
			maxK++
		}
	}
	return minK, maxK
}

// Match finds the commit count k in [minK, maxK] whose oracle state
// equals got.
func (o *Oracle) Match(got map[string]uint64, minK, maxK int) (int, bool) {
	for k := minK; k <= maxK; k++ {
		if mapsEqual(got, o.StateAt(k)) {
			return k, true
		}
	}
	return 0, false
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// WorkloadConfig tunes the seeded churn the sweep traces.
type WorkloadConfig struct {
	// Trace, when set, receives a line per workload action with the
	// trace position, for debugging sweep violations.
	Trace       func(format string, args ...any)
	Seed        int64
	Txns        int // committed-or-aborted transactions to attempt
	Objects     int // object-name pool size (default 6)
	MaxWrite    int // max bytes per mutating op (default 1200)
	MaxObjBytes int // soft per-object size cap (default 48 KiB)
	CheckEvery  int // checkpoint every N transactions (default 10)
	// NoLoser skips the trailing uncommitted transaction (used by the
	// model-validation test, which needs the live store to hold exactly
	// the committed state).
	NoLoser bool
}

func (c *WorkloadConfig) defaults() {
	if c.Objects == 0 {
		c.Objects = 6
	}
	if c.MaxWrite == 0 {
		c.MaxWrite = 1200
	}
	if c.MaxObjBytes == 0 {
		c.MaxObjBytes = 48 << 10
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 10
	}
}

// RunWorkload drives the mixed churn against st (built over crash
// devices recording into trace) and returns the oracle.  It deliberately ends
// with an uncommitted transaction still in flight, so the trace tail
// exercises in-flight undo; the store is NOT closed.
func RunWorkload(st *eos.Store, trace *disk.CrashTrace, cfg WorkloadConfig) (*Oracle, error) {
	cfg.defaults()
	if cfg.Trace == nil {
		cfg.Trace = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	oracle := &Oracle{P0: trace.Len()}
	model := map[string][]byte{} // committed content

	for i := 0; i < cfg.Txns; i++ {
		if i > 0 && i%cfg.CheckEvery == 0 {
			if err := st.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint before txn %d: %w", i, err)
			}
		}
		tx, err := st.Begin()
		if err != nil {
			return nil, fmt.Errorf("begin txn %d: %w", i, err)
		}
		cfg.Trace("seq %d: txn %d begins", trace.Len(), i)
		staged := map[string]*[]byte{} // nil pointer = destroyed in this txn
		nOps := 1 + rng.Intn(3)
		opErr := error(nil)
		for j := 0; j < nOps && opErr == nil; j++ {
			opErr = randomOp(tx, rng, cfg, model, staged)
		}
		if opErr != nil {
			// Space or log pressure: abort, checkpoint to drain, go on.
			if aerr := tx.Abort(); aerr != nil {
				return nil, fmt.Errorf("abort after op error %w: %w", opErr, aerr)
			}
			if cerr := st.Checkpoint(); cerr != nil {
				return nil, fmt.Errorf("checkpoint after aborted txn %d: %w", i, cerr)
			}
			continue
		}
		switch {
		case rng.Intn(10) == 0: // voluntary abort
			if err := tx.Abort(); err != nil {
				return nil, fmt.Errorf("abort txn %d: %w", i, err)
			}
			cfg.Trace("seq %d: txn %d aborted", trace.Len(), i)
		default:
			force := rng.Intn(100) < 70
			beginSeq := trace.Len()
			if force {
				err = tx.Commit()
			} else {
				err = tx.CommitNoForce()
			}
			if err != nil {
				return nil, fmt.Errorf("commit txn %d: %w", i, err)
			}
			retSeq := trace.Len()
			cfg.Trace("seq %d-%d: txn %d committed (force=%v)", beginSeq, retSeq, i, force)
			applyStaged(model, staged)
			sizes := make(map[string]int, len(model))
			for n, c := range model {
				sizes[n] = len(c)
			}
			contents := make(map[string][]byte, len(model))
			for n, c := range model {
				contents[n] = append([]byte{}, c...)
			}
			oracle.Commits = append(oracle.Commits, Commit{
				BeginSeq: beginSeq,
				RetSeq:   retSeq,
				State:    snapshotHashes(model),
				Sizes:    sizes,
				Contents: contents,
			})
		}
	}

	if cfg.NoLoser {
		return oracle, nil
	}
	// Leave a loser in flight: its records sit in the log tail and its
	// in-place replaces may be partially durable — recovery must erase
	// every trace of it.
	//eoslint:ignore pairs -- the loser is deliberately left open: the sweep crashes with it in flight so recovery must erase it
	loser, err := st.Begin()
	if err != nil {
		return nil, fmt.Errorf("begin loser: %w", err)
	}
	staged := map[string]*[]byte{}
	for j := 0; j < 2; j++ {
		if err := randomOp(loser, rng, cfg, model, staged); err != nil {
			break // pressure errors are fine here; the point is open records
		}
	}
	// Push the loser's dirty pages toward the device without committing:
	// a soft checkpoint forces data while the transaction stays open.
	if err := st.Checkpoint(); err != nil {
		return nil, fmt.Errorf("soft checkpoint with loser in flight: %w", err)
	}
	return oracle, nil
}

// randomOp performs one mutating operation on tx, keeping model/staged
// bookkeeping in sync.  Errors are returned for the caller to abort on.
func randomOp(tx *eos.Txn, rng *rand.Rand, cfg WorkloadConfig, model map[string][]byte, staged map[string]*[]byte) error {
	name := fmt.Sprintf("o%d", rng.Intn(cfg.Objects))
	cur, exists := stagedValue(model, staged, name)

	if !exists {
		if err := tx.Create(name, 0); err != nil {
			return err
		}
		v := []byte{}
		staged[name] = &v
		cur = v
		// fall through to also write into the fresh object
	}

	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}

	roll := rng.Intn(100)
	big := len(cur) >= cfg.MaxObjBytes
	defer func() { cfg.Trace("        op on %s done (len was %d)", name, len(cur)) }()
	switch {
	case roll < 8 && exists: // destroy
		if err := tx.Destroy(name); err != nil {
			return err
		}
		staged[name] = nil
		return nil
	case roll < 40 && !big: // append
		d := data(1 + rng.Intn(cfg.MaxWrite))
		if err := tx.Append(name, d); err != nil {
			return err
		}
		nv := append(append([]byte{}, cur...), d...)
		staged[name] = &nv
		return nil
	case roll < 55 && !big: // insert
		off := int64(0)
		if len(cur) > 0 {
			off = int64(rng.Intn(len(cur) + 1))
		}
		d := data(1 + rng.Intn(cfg.MaxWrite))
		if err := tx.Insert(name, off, d); err != nil {
			return err
		}
		nv := make([]byte, 0, len(cur)+len(d))
		nv = append(nv, cur[:off]...)
		nv = append(nv, d...)
		nv = append(nv, cur[off:]...)
		staged[name] = &nv
		return nil
	case roll < 70 && len(cur) > 0: // delete a range
		off := int64(rng.Intn(len(cur)))
		n := int64(1 + rng.Intn(len(cur)-int(off)))
		if err := tx.Delete(name, off, n); err != nil {
			return err
		}
		nv := append(append([]byte{}, cur[:off]...), cur[off+n:]...)
		staged[name] = &nv
		return nil
	case roll < 90 && len(cur) > 0: // replace in place
		off := int64(rng.Intn(len(cur)))
		max := len(cur) - int(off)
		if max > cfg.MaxWrite {
			max = cfg.MaxWrite
		}
		d := data(1 + rng.Intn(max))
		if err := tx.Replace(name, off, d); err != nil {
			return err
		}
		nv := append([]byte{}, cur...)
		copy(nv[off:], d)
		staged[name] = &nv
		return nil
	case len(cur) > 0: // truncate
		newSize := int64(rng.Intn(len(cur)))
		if err := tx.Truncate(name, newSize); err != nil {
			return err
		}
		nv := append([]byte{}, cur[:newSize]...)
		staged[name] = &nv
		return nil
	default: // empty object: append something small
		d := data(1 + rng.Intn(64))
		if err := tx.Append(name, d); err != nil {
			return err
		}
		nv := append(append([]byte{}, cur...), d...)
		staged[name] = &nv
		return nil
	}
}

// stagedValue reads name through the transaction's staging overlay.
func stagedValue(model map[string][]byte, staged map[string]*[]byte, name string) ([]byte, bool) {
	if v, ok := staged[name]; ok {
		if v == nil {
			return nil, false
		}
		return *v, true
	}
	v, ok := model[name]
	return v, ok
}

func applyStaged(model map[string][]byte, staged map[string]*[]byte) {
	for name, v := range staged {
		if v == nil {
			delete(model, name)
		} else {
			model[name] = *v
		}
	}
}

func snapshotHashes(model map[string][]byte) map[string]uint64 {
	out := make(map[string]uint64, len(model))
	for name, content := range model {
		out[name] = hashBytes(content)
	}
	return out
}
