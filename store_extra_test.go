package eos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

func TestCheckNoLeaksAcrossLifecycle(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("fresh store: %v", err)
	}
	o, _ := s.Create("a", 0)
	if err := o.Append(pat(1, 60000)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after append: %v", err)
	}
	if err := o.Insert(30000, pat(2, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(1000, 20000); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after updates: %v", err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("a", 0, pat(3, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	if err := s.Destroy("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatalf("after destroy: %v", err)
	}
}

func TestCheckNoLeaksAfterRecovery(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("r", 0)
	if err := o.Append(pat(4, 40000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Insert("r", 100, pat(5, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitNoForce(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatalf("after redo recovery: %v", err)
	}
}

func TestIOErrorsPropagateWithoutPanic(t *testing.T) {
	s, vol, _ := newStore(t, Options{})
	o, _ := s.Create("e", 0)
	if err := o.Append(pat(6, 50000)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected I/O failure")

	// Fail at several depths into each operation; every call must
	// surface an error (or succeed if it needed fewer I/Os) — never
	// panic, never corrupt the in-memory model silently.
	ops := []struct {
		name string
		run  func() error
	}{
		{"read", func() error { _, err := o.Read(10000, 5000); return err }},
		{"replace", func() error { return o.Replace(10000, pat(7, 2000)) }},
		{"insert", func() error { return o.Insert(20000, pat(8, 500)) }},
		{"delete", func() error { return o.Delete(5000, 800) }},
		{"append", func() error { return o.Append(pat(9, 3000)) }},
	}
	for _, op := range ops {
		for after := int64(0); after < 4; after++ {
			vol.FailAfter(after, boom)
			err := op.run()
			vol.ClearFault()
			if err != nil && !errors.Is(err, boom) {
				t.Errorf("%s (after %d): unexpected error %v", op.name, after, err)
			}
		}
	}
	// The store may have leaked pages from interrupted operations — that
	// is what recovery's free-space rebuild repairs — but reads must
	// still work after faults clear for all content the model confirms.
	if _, err := o.Read(0, 100); err != nil {
		t.Fatalf("read after faults cleared: %v", err)
	}
}

func TestConcurrentTxnsOnDistinctObjects(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
	const workers = 8
	for i := 0; i < workers; i++ {
		o, err := s.Create(fmt.Sprintf("obj-%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("obj-%d", i)
			for round := 0; round < 10; round++ {
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Insert(name, int64(round*100), pat(round, 200)); err != nil {
					errs <- err
					return
				}
				if err := tx.Append(name, pat(round, 100)); err != nil {
					errs <- err
					return
				}
				if round%3 == 0 {
					if err := tx.Abort(); err != nil {
						errs <- err
						return
					}
				} else if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
	// Each object: base 4000 + committed rounds (6 of 10; rounds 0, 3,
	// 6, 9 abort) x 300 bytes.
	for i := 0; i < workers; i++ {
		o, _ := s.Open(fmt.Sprintf("obj-%d", i))
		if o.Size() != 4000+6*300 {
			t.Errorf("obj-%d size = %d, want %d", i, o.Size(), 4000+6*300)
		}
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 5 * time.Second})
	o, _ := s.Create("shared", 0)
	base := pat(10, 20000)
	if err := o.Append(base); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers under shared locks.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := s.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				data, err := tx.Read("shared", 0, 100)
				if err != nil {
					t.Error(err)
					return
				}
				if len(data) != 100 {
					t.Error("short read")
				}
				tx.Abort()
			}
		}()
	}
	// One writer alternating commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tx, err := s.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Replace("shared", 500, pat(i, 100)); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsValidation(t *testing.T) {
	vol := disk.MustNewVolume(512, 64, disk.CostModel{})
	logVol := disk.MustNewVolume(512, 16, disk.CostModel{})
	// Volume too small for the requested layout.
	if _, err := Format(vol, logVol, Options{NumSpaces: 10, SpaceCapacity: 400}); err == nil {
		t.Error("oversized layout accepted")
	}
	// Defaults on a modest volume succeed.
	vol2 := disk.MustNewVolume(512, 2048, disk.CostModel{})
	s, err := Format(vol2, logVol, Options{})
	if err != nil {
		t.Fatalf("defaulted Format: %v", err)
	}
	if s.PageSize() != 512 {
		t.Errorf("page size = %d", s.PageSize())
	}
}

func TestOpenRejectsGarbageHeader(t *testing.T) {
	vol := disk.MustNewVolume(512, 2048, disk.CostModel{})
	logVol := disk.MustNewVolume(512, 64, disk.CostModel{})
	if _, err := Open(vol, logVol, Options{}); !errors.Is(err, ErrCorruptStore) {
		t.Errorf("open of unformatted volume: %v", err)
	}
}

func TestCatalogManyObjects(t *testing.T) {
	s, vol, logVol := newStore(t, Options{CatalogPages: 8})
	var names []string
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("object-%02d", i)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(pat(i, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.List(); len(got) != len(names) {
		t.Fatalf("recovered %d objects, want %d", len(got), len(names))
	}
	for i, name := range names {
		o, err := s2.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pat(i, 100*(i+1))) {
			t.Errorf("%s content mismatch", name)
		}
	}
	if err := s2.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestLockTimeoutSurfacesAsError(t *testing.T) {
	s, _, _ := newStore(t, Options{LockTimeout: 50 * time.Millisecond})
	o, _ := s.Create("locked", 0)
	if err := o.Append(pat(11, 100)); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	if err := t1.Replace("locked", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t2, _ := s.Begin()
	if err := t2.Replace("locked", 0, []byte("y")); err == nil {
		t.Error("conflicting write succeeded")
	}
	t1.Commit()
	t2.Abort()
}

func TestTxnTruncate(t *testing.T) {
	s, _, _ := newStore(t, Options{})
	o, _ := s.Create("t", 0)
	data := pat(78, 5000)
	if err := o.Append(data); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Truncate("t", 2000); err != nil {
		t.Fatal(err)
	}
	if err := tx.Truncate("t", 5000); err == nil {
		t.Error("growing truncate accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Read(0, o.Size())
	if !bytes.Equal(got, data[:2000]) {
		t.Error("truncate content wrong")
	}

	// Truncate inside an aborted txn rolls back.
	tx2, _ := s.Begin()
	if err := tx2.Truncate("t", 0); err != nil {
		t.Fatal(err)
	}
	if sz, _ := tx2.Size("t"); sz != 0 {
		t.Errorf("size inside txn = %d", sz)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if o.Size() != 2000 {
		t.Errorf("size after abort = %d, want 2000", o.Size())
	}
}

func TestStoreClose(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	o, _ := s.Create("c", 0)
	if err := o.Append(pat(79, 1000)); err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	if err := tx.Append("c", pat(80, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Error("Close with live txn accepted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything durable after Close.
	vol.Crash()
	logVol.Crash()
	s2, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := s2.Open("c")
	if o2.Size() != 1010 {
		t.Errorf("size after close+reopen = %d", o2.Size())
	}
}

// TestRecoveryNameReusedAfterDestroy crashes with a log that creates,
// destroys and re-creates one name while the durable catalog already
// holds the second incarnation.  Redo of the first create must not take
// the name from the survivor, or the destroy that follows it drops the
// survivor from the catalog.
func TestRecoveryNameReusedAfterDestroy(t *testing.T) {
	s, vol, logVol := newStore(t, Options{})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit := func(ops func(tx *Txn) error) {
		t.Helper()
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := ops(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	create := func(data []byte) func(tx *Txn) error {
		return func(tx *Txn) error {
			if err := tx.Create("o", 0); err != nil {
				return err
			}
			return tx.Append("o", data)
		}
	}
	commit(create(pat(1, 700)))
	commit(func(tx *Txn) error { return tx.Destroy("o") })
	want := pat(2, 900)
	commit(create(want))

	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(vol, logVol, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	o, err := re.Open("o")
	if err != nil {
		t.Fatalf("re-created object lost in recovery: %v", err)
	}
	got, err := o.Read(0, o.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, want the second incarnation's %d", len(got), len(want))
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckNoLeaks(); err != nil {
		t.Fatal(err)
	}
}
