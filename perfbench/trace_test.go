package main

import (
	"path/filepath"
	"sync"
	"testing"

	"github.com/eosdb/eos"
	"github.com/eosdb/eos/internal/disk"
)

// TestTracerChargesStoreGoroutines checks that device calls the store
// makes from goroutines of its own — the buffer pool's parallel shard
// flush on a durable commit, a multi-segment read's parallel segment
// reads — are charged to the public call that started them.
func TestTracerChargesStoreGoroutines(t *testing.T) {
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
	tr := newTracer(ps)
	opts := eos.Options{CatalogPages: 4, Threshold: 2}
	td := newTimedDevice(data, 0, storeSpec{opts: opts}.metaPages(), tr)
	tl := newTimedDevice(logv, 1, 0, tr)
	s, err := eos.Format(td, tl, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr.start()
	for i := 0; i < 4; i++ {
		req := tr.begin(0, "req.txn", false)
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			err = tx.Create("obj", 0)
		}
		if err == nil {
			err = tx.Append("obj", bytesOf(64<<10, uint64(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
		c := tr.call(req, "eos.commit")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tr.end(c)
		tr.end(req)
	}
	o, err := s.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	req := tr.begin(0, "req.read", false)
	c := tr.call(req, "eos.readat")
	buf := make([]byte, 200<<10)
	if err := o.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	tr.end(c)
	tr.end(req)
	tr.stop()

	if n, d := tr.unattributed(); n != 0 {
		t.Errorf("%d device calls (%v) charged to no operation", n, d)
	}
	commit := tr.times("eos.commit")
	for i := range commit.dur {
		if commit.dataNs[i] <= 0 || commit.logNs[i] <= 0 || commit.self[i] < 0 {
			t.Errorf("commit %d: data %d ns, log %d ns, self %d ns", i, commit.dataNs[i], commit.logNs[i], commit.self[i])
		}
	}
	var spans []span
	for _, chunk := range tr.spans {
		spans = append(spans, chunk...)
	}
	wrote := map[uint64]int{}
	for _, sp := range spans {
		if sp.Name == "disk.data.write" {
			wrote[sp.Parent]++
		}
	}
	var commitWrites int
	for _, sp := range spans {
		if sp.Name == "eos.commit" {
			commitWrites += wrote[sp.ID]
		}
	}
	if commitWrites == 0 {
		t.Error("no data-volume write charged to a commit")
	}
	if read := tr.times("eos.readat"); len(read.dataNs) != 1 || read.dataNs[0] <= 0 {
		t.Errorf("readat device time %v, want one positive", read.dataNs)
	}
	if segs, err := o.Segments(); err != nil || len(segs) < 2 {
		t.Errorf("object has %d segments (%v), want a multi-segment read", len(segs), err)
	}
}

// TestTracerGoroutineInheritance checks the mechanism itself: a device
// call from a goroutine started inside a call is charged to that call,
// and one from a goroutine started outside any operation is counted as
// unattributed.
func TestTracerGoroutineInheritance(t *testing.T) {
	dir := t.TempDir()
	v, err := disk.CreateFileVolume(filepath.Join(dir, dataFile), 512, 64, disk.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	tr := newTracer(512)
	d := newTimedDevice(v, 1, 0, tr)
	page := make([]byte, 512)
	inGoroutines := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := d.WritePages(disk.PageNum(i), 1, page); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
	tr.start()
	req := tr.begin(0, "req", false)
	c := tr.call(req, "call")
	inGoroutines(4)
	tr.end(c)
	tr.end(req)
	inGoroutines(3)
	tr.stop()

	call := tr.times("call")
	if want := int64(4 * 512); len(call.logBytes) != 1 || call.logBytes[0] != want {
		t.Errorf("call charged with %v log bytes, want [%d]", call.logBytes, want)
	}
	if n, _ := tr.unattributed(); n != 3 {
		t.Errorf("%d unattributed device calls, want 3", n)
	}
	if r := tr.times("req"); r.logNs[0] != call.logNs[0] || r.logNs[0] <= 0 {
		t.Errorf("request log time %d, call log time %d: want equal and positive", r.logNs[0], call.logNs[0])
	}
}

func TestUnionNs(t *testing.T) {
	ivs := []interval{{0, 10, 20}, {0, 15, 30}, {1, 25, 40}, {0, 50, 60}, {1, 0, 5}}
	data, log, all := unionNs(ivs)
	if data != 30 || log != 20 || all != 45 {
		t.Errorf("union: data %d log %d all %d, want 30 20 45", data, log, all)
	}
}
