package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// TestTimedDeviceCountsMatchVolumeStats drives a single-client store
// through the timing wrapper and checks that the wrapper's counts equal
// the volumes' own Stats deltas, and that catalog writes are tagged.
func TestTimedDeviceCountsMatchVolumeStats(t *testing.T) {
	dir := t.TempDir()
	const ps = 4096
	data, err := disk.CreateFileVolume(filepath.Join(dir, dataFile), ps, 4096, disk.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer data.Close()
	logv, err := disk.CreateFileVolume(filepath.Join(dir, logFile), ps, 1024, disk.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer logv.Close()
	opts := eos.Options{CatalogPages: 4}
	meta := storeSpec{opts: opts}.metaPages()
	td := newTimedDevice(data, 0, meta, nil)
	tl := newTimedDevice(logv, 1, 0, nil)
	s, err := eos.Format(td, tl, opts)
	if err != nil {
		t.Fatal(err)
	}
	d0, l0 := data.Stats(), logv.Stats()
	w0, wl0 := td.counters(), tl.counters()

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("o%d", i)
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Create(name, 0); err != nil {
			t.Fatal(err)
		}
		if err := tx.Append(name, bytesOf(100<<10, uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	o, err := s.Open("o5")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	if err := o.ReadAt(buf, 1000); err != nil {
		t.Fatal(err)
	}
	if want := bytesOf(100<<10, 5)[1000 : 1000+len(buf)]; !bytes.Equal(buf, want) {
		t.Fatal("read back differs")
	}

	dw, ds := td.counters().sub(w0), s.Stats().Disk.Sub(d0)
	if !dw.matches(ds) {
		t.Errorf("data volume: wrapper %+v, Stats().Disk delta %+v", dw, ds)
	}
	lw, ls := tl.counters().sub(wl0), logv.Stats().Sub(l0)
	if !lw.matches(ls) {
		t.Errorf("log volume: wrapper %+v, Stats delta %+v", lw, ls)
	}
	if ds.Writes == 0 || ds.Syncs == 0 || ls.Writes == 0 || ls.Syncs == 0 {
		t.Errorf("workload moved too little: data %+v, log %+v", ds, ls)
	}
	if dw.MetaPagesWritten == 0 || dw.MetaPagesWritten >= dw.PagesWritten {
		t.Errorf("catalog pages written %d of %d: want some, not all", dw.MetaPagesWritten, dw.PagesWritten)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
