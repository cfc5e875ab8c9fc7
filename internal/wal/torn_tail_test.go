package wal

import (
	"bytes"
	"testing"

	"github.com/eosdb/eos/internal/disk"
)

// Torn-tail corpus: a crash can leave the final log record in any
// partially-written state — header torn mid-write, payload torn,
// arbitrary garbage, or stale bytes from a previous log epoch sitting
// at the write position.  In every case Recover must treat the damage
// as end-of-log: return exactly the intact prefix, position the tail at
// its end, and leave the log appendable (new records overwrite the torn
// region and survive a second recovery).

// tornCase mutates the raw volume image in place.  lastOff/lastSize
// delimit the final (victim) record; firstOff/firstSize the first one.
type tornCase struct {
	name string
	mut  func(img []byte, lastOff, lastSize, firstOff, firstSize int)
}

func tornTailCorpus() []tornCase {
	return []tornCase{
		{"zeroed-record", func(img []byte, off, size, _, _ int) {
			// The write never reached the device at all: the size field
			// reads 0 < recHeaderSize, which Scan treats as a clean end.
			for i := off; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-header", func(img []byte, off, size, _, _ int) {
			// CRC and size landed, the rest of the header did not.
			for i := off + 8; i < off+size; i++ {
				img[i] = 0
			}
		}},
		{"torn-mid-payload", func(img []byte, off, size, _, _ int) {
			// Header intact, payload bytes lost: checksum must catch it.
			for i := off + recHeaderSize; i < off+size; i++ {
				img[i] ^= 0x5A
			}
		}},
		{"garbage-tail", func(img []byte, off, size, _, _ int) {
			// Arbitrary junk: the size field decodes to nonsense.
			for i := off; i < off+size; i++ {
				img[i] = 0xA5
			}
		}},
		{"stale-epoch-record", func(img []byte, off, size, firstOff, firstSize int) {
			// A fully intact record from another position (as a reused
			// log region would contain): CRC passes, but its LSN does
			// not match base+off+1, so Scan must still stop.
			if firstSize > size {
				firstSize = size
			}
			copy(img[off:off+firstSize], img[firstOff:firstOff+firstSize])
		}},
	}
}

// buildTornLog appends a prefix of records plus one victim record,
// forces everything, and returns the volume along with the victim's
// byte offset/size and the first record's offset/size.
func buildTornLog(t *testing.T, victim *Record) (vol *disk.CrashDevice, prefixLSNs []uint64, lastOff, lastSize, firstOff, firstSize int) {
	t.Helper()
	l, v := newLog(t, 64)
	prefix := []*Record{
		{Txn: 1, Type: RecBegin},
		{Txn: 1, Type: RecInsert, Object: 3, Off: 0, Data: []byte("durable payload")},
		{Txn: 1, Type: RecCommit},
	}
	for _, r := range prefix {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		prefixLSNs = append(prefixLSNs, lsn)
	}
	firstOff = int(prefixLSNs[0]) - 1
	firstSize = int(prefixLSNs[1]) - 1 - firstOff
	lsn, err := l.Append(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	lastOff = int(lsn) - 1
	lastSize = int(l.Tail()) - lastOff
	return v, prefixLSNs, lastOff, lastSize, firstOff, firstSize
}

func TestRecoverTornTailCorpus(t *testing.T) {
	for _, tc := range tornTailCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			victim := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: []byte("torn away")}
			vol, prefixLSNs, lastOff, lastSize, firstOff, firstSize := buildTornLog(t, victim)

			img, err := vol.Read(0, int(vol.NumPages()))
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(img, lastOff, lastSize, firstOff, firstSize)
			if err := vol.WritePages(0, int(vol.NumPages()), img); err != nil {
				t.Fatal(err)
			}

			l2, recs, err := Recover(vol, 0)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(recs) != len(prefixLSNs) {
				t.Fatalf("recovered %d records, want intact prefix of %d", len(recs), len(prefixLSNs))
			}
			for i, r := range recs {
				if r.LSN != prefixLSNs[i] {
					t.Errorf("record %d: LSN %d, want %d", i, r.LSN, prefixLSNs[i])
				}
			}
			if got := l2.Tail(); got != int64(lastOff) {
				t.Errorf("tail at %d, want end of intact prefix %d", got, lastOff)
			}

			// The log must remain usable: a fresh append lands where the
			// torn record was and survives another recovery.
			fresh := &Record{Txn: 9, Type: RecAppend, Object: 3, Data: []byte("after the tear")}
			lsn, err := l2.Append(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(lastOff)+1 {
				t.Errorf("fresh record at LSN %d, want %d (overwriting the tear)", lsn, lastOff+1)
			}
			if err := l2.Force(); err != nil {
				t.Fatal(err)
			}
			_, recs2, err := Recover(vol, 0)
			if err != nil {
				t.Fatalf("second Recover: %v", err)
			}
			if len(recs2) != len(prefixLSNs)+1 {
				t.Fatalf("after re-append recovered %d records, want %d", len(recs2), len(prefixLSNs)+1)
			}
			last := recs2[len(recs2)-1]
			if last.LSN != lsn || !bytes.Equal(last.Data, fresh.Data) {
				t.Errorf("fresh record did not round-trip: %+v", last)
			}
		})
	}
}

// TestRecoverTornMultiPageRecord tears a record that spans pages at the
// page boundary: the first page of the record is durable, the rest is
// not — the shape a real partial flush produces.
func TestRecoverTornMultiPageRecord(t *testing.T) {
	big := &Record{Txn: 2, Type: RecAppend, Object: 3, Data: bytes.Repeat([]byte{0xCD}, 700)}
	vol, prefixLSNs, lastOff, lastSize, _, _ := buildTornLog(t, big)
	if lastSize <= 256 {
		t.Fatalf("victim record must span pages, got %d bytes", lastSize)
	}

	img, err := vol.Read(0, int(vol.NumPages()))
	if err != nil {
		t.Fatal(err)
	}
	// Zero every page of the record after the first.
	ps := 256
	secondPage := (lastOff/ps + 1) * ps
	for i := secondPage; i < lastOff+lastSize; i++ {
		img[i] = 0
	}
	if err := vol.WritePages(0, int(vol.NumPages()), img); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Recover(vol, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != len(prefixLSNs) {
		t.Fatalf("recovered %d records, want intact prefix of %d", len(recs), len(prefixLSNs))
	}
	if got := l2.Tail(); got != int64(lastOff) {
		t.Errorf("tail at %d, want %d", got, lastOff)
	}
}
