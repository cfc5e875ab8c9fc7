package eos

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCreateAtOpenAtRoundTrip drives the file backend through its
// whole lifecycle: create a store on real page files, write objects,
// close, reopen from the directory (running recovery), and verify the
// content — then once more to prove reopen is repeatable.
func TestCreateAtOpenAtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Backend: BackendFile, DataPages: 2048, LogPages: 512}
	s, err := CreateAt(dir, opts)
	if err != nil {
		t.Fatalf("CreateAt: %v", err)
	}
	data := pat(3, 100000)
	o, err := s.Create("blob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AppendWithHint(data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, name := range []string{dataFileName, logFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("volume file %s missing: %v", name, err)
		}
	}
	for round := 0; round < 2; round++ {
		s, err = OpenAt(dir, opts)
		if err != nil {
			t.Fatalf("OpenAt round %d: %v", round, err)
		}
		o, err := s.Open("blob")
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("content mismatch after reopen %d", round)
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close round %d: %v", round, err)
		}
	}
}

// TestCreateAtSimBackend checks the default backend builds an
// in-memory store and that OpenAt refuses it (nothing on disk to
// reopen).
func TestCreateAtSimBackend(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateAt(dir, Options{})
	if err != nil {
		t.Fatalf("CreateAt: %v", err)
	}
	if _, err := s.Create("x", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir, Options{}); err == nil {
		t.Error("OpenAt accepted the sim backend")
	}
	if _, err := CreateAt(t.TempDir(), Options{Backend: "tape"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestCheckpointRunsSurviveCrash runs a write-heavy store, checks that
// checkpoint write-back issues vectored runs, and verifies that the
// checkpointed state survives a crash.  Runs on both backends via
// EOS_TEST_BACKEND.
func TestCheckpointRunsSurviveCrash(t *testing.T) {
	s, vol, logVol := newStore(t, Options{Threshold: 4})
	want := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		data := pat(i, 20000)
		o, err := s.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Append(data); err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st := vol.Stats(); st.RunWrites == 0 {
		t.Error("checkpoint issued no vectored runs")
	}
	// The checkpointed state must survive a crash: everything the
	// checkpoint wrote was forced.
	if err := vol.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := logVol.Crash(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(vol, logVol, Options{Threshold: 4})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	for name, data := range want {
		o, err := re.Open(name)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		got, err := o.Read(0, o.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("object %q content mismatch after checkpoint + crash", name)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
