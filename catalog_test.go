package eos

import (
	"errors"
	"fmt"
	"testing"
)

// TestCatalogFullIsTyped fills a one-page catalog slot with committed
// objects until a commit no longer fits.  A full slot is a capacity
// condition, not corruption: the refused transaction aborts, and the
// store recovers cleanly with every admitted commit.
func TestCatalogFullIsTyped(t *testing.T) {
	opts := Options{CatalogPages: 1}
	s, vol, logVol := newStore(t, opts)
	var err error
	committed := -1
	for i := 0; err == nil; i++ {
		committed++
		if i == 1000 {
			t.Fatal("1000 objects fit in a one-page catalog slot")
		}
		tx, berr := s.Begin()
		if berr != nil {
			t.Fatal(berr)
		}
		name := fmt.Sprintf("object-with-a-long-name-%04d", i)
		if err := tx.Create(name, 0); err != nil {
			t.Fatal(err)
		}
		if err := tx.Append(name, pat(i, 100)); err != nil {
			t.Fatal(err)
		}
		if err = tx.Commit(); err != nil {
			if aerr := tx.Abort(); aerr != nil {
				t.Fatalf("abort refused transaction: %v", aerr)
			}
		}
	}
	if !errors.Is(err, ErrCatalogFull) {
		t.Fatalf("overflowing commit: err = %v, want ErrCatalogFull", err)
	}
	if errors.Is(err, ErrCorruptStore) {
		t.Fatalf("overflowing commit reported corruption: %v", err)
	}
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(vol, logVol, opts)
	if err != nil {
		t.Fatalf("reopen after catalog overflow: %v", err)
	}
	if err := re.Check(); err != nil {
		t.Fatalf("Check after reopen: %v", err)
	}
	if n := len(re.List()); n != committed {
		t.Fatalf("reopened store holds %d objects, want the %d committed", n, committed)
	}
}
