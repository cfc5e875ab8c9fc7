package main

import (
	"sync/atomic"
	"time"

	"github.com/eosdb/eos/internal/disk"
)

// devCounters is what the timing wrapper accumulates for one volume.
// Request and page counts follow disk.Stats exactly (a WriteRun is one
// write and one run write), so they can be checked against the
// volume's own statistics; the times are wall-clock nanoseconds spent
// inside the wrapped call.
type devCounters struct {
	Reads, PagesRead, ReadNs        int64
	Writes, PagesWritten, RunWrites int64
	WriteNs, Syncs, SyncNs          int64
	// MetaPagesWritten counts written pages that fall in the volume's
	// header+catalog region [0, metaPages).
	MetaPagesWritten int64
}

func (c devCounters) sub(o devCounters) devCounters {
	return devCounters{
		Reads: c.Reads - o.Reads, PagesRead: c.PagesRead - o.PagesRead, ReadNs: c.ReadNs - o.ReadNs,
		Writes: c.Writes - o.Writes, PagesWritten: c.PagesWritten - o.PagesWritten, RunWrites: c.RunWrites - o.RunWrites,
		WriteNs: c.WriteNs - o.WriteNs, Syncs: c.Syncs - o.Syncs, SyncNs: c.SyncNs - o.SyncNs,
		MetaPagesWritten: c.MetaPagesWritten - o.MetaPagesWritten,
	}
}

// matches reports whether the wrapper's request and page counts equal a
// disk.Stats delta taken over the same interval.
func (c devCounters) matches(s disk.Stats) bool {
	return c.Reads == s.Reads && c.PagesRead == s.PagesRead &&
		c.Writes == s.Writes && c.PagesWritten == s.PagesWritten &&
		c.RunWrites == s.RunWrites && c.Syncs == s.Syncs
}

// timedDevice wraps a disk.Device and counts and times every transfer
// and durability barrier.  The store only ever sees the Device
// interface, so the wrapper observes all of its I/O on the volume.
// When a tracer is attached, each call is also recorded as a span
// charged to the public operation the calling goroutine works for.
type timedDevice struct {
	disk.Device
	vol       int // 0 data volume, 1 log volume
	metaPages disk.PageNum
	tr        *tracer

	reads, pagesRead, readNs         atomic.Int64
	writes, pagesWritten, runWrites  atomic.Int64
	writeNs, syncs, syncNs, metaPgWr atomic.Int64
}

func newTimedDevice(d disk.Device, vol int, metaPages disk.PageNum, tr *tracer) *timedDevice {
	return &timedDevice{Device: d, vol: vol, metaPages: metaPages, tr: tr}
}

func (d *timedDevice) counters() devCounters {
	return devCounters{
		Reads: d.reads.Load(), PagesRead: d.pagesRead.Load(), ReadNs: d.readNs.Load(),
		Writes: d.writes.Load(), PagesWritten: d.pagesWritten.Load(), RunWrites: d.runWrites.Load(),
		WriteNs: d.writeNs.Load(), Syncs: d.syncs.Load(), SyncNs: d.syncNs.Load(),
		MetaPagesWritten: d.metaPgWr.Load(),
	}
}

func (d *timedDevice) read(n int, began time.Time, err error) {
	end := time.Now()
	if err == nil {
		d.reads.Add(1)
		d.pagesRead.Add(int64(n))
	}
	d.readNs.Add(int64(end.Sub(began)))
	d.tr.device(d.vol, spanRead, n, began, end)
}

func (d *timedDevice) wrote(start disk.PageNum, n int, run bool, began time.Time, err error) {
	end := time.Now()
	if err == nil {
		d.writes.Add(1)
		d.pagesWritten.Add(int64(n))
		if run {
			d.runWrites.Add(1)
		}
		if start < d.metaPages {
			m := d.metaPages - start
			if m > disk.PageNum(n) {
				m = disk.PageNum(n)
			}
			d.metaPgWr.Add(int64(m))
		}
	}
	d.writeNs.Add(int64(end.Sub(began)))
	d.tr.device(d.vol, spanWrite, n, began, end)
}

func (d *timedDevice) synced(began time.Time) {
	end := time.Now()
	d.syncs.Add(1)
	d.syncNs.Add(int64(end.Sub(began)))
	d.tr.device(d.vol, spanSync, 0, began, end)
}

func (d *timedDevice) ReadPages(start disk.PageNum, n int, buf []byte) error {
	began := time.Now()
	err := d.Device.ReadPages(start, n, buf)
	d.read(n, began, err)
	return err
}

func (d *timedDevice) Read(start disk.PageNum, n int) ([]byte, error) {
	began := time.Now()
	b, err := d.Device.Read(start, n)
	d.read(n, began, err)
	return b, err
}

func (d *timedDevice) WritePages(start disk.PageNum, n int, buf []byte) error {
	began := time.Now()
	err := d.Device.WritePages(start, n, buf)
	d.wrote(start, n, false, began, err)
	return err
}

func (d *timedDevice) WriteRun(start disk.PageNum, pages [][]byte) error {
	began := time.Now()
	err := d.Device.WriteRun(start, pages)
	d.wrote(start, len(pages), true, began, err)
	return err
}

func (d *timedDevice) Force(start disk.PageNum, n int) error {
	began := time.Now()
	err := d.Device.Force(start, n)
	d.synced(began)
	return err
}

func (d *timedDevice) ForceAll() error {
	began := time.Now()
	err := d.Device.ForceAll()
	d.synced(began)
	return err
}

func (d *timedDevice) ForceAllExcept(skip map[disk.PageNum]bool) error {
	began := time.Now()
	err := d.Device.ForceAllExcept(skip)
	d.synced(began)
	return err
}
