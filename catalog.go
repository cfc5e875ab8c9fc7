package eos

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/eosdb/eos/internal/disk"
)

// The catalog holds every object's descriptor — id, name, threshold,
// growth state, root node, and the LSN of its last logged update.  EOS
// proper leaves descriptor placement to the client (§4: a catalog page,
// or a field of a small record to implement long fields); the Store keeps
// them on a small run of reserved pages after the header.
//
// Because the catalog spans several pages and a power cut preserves an
// arbitrary subset of outstanding page writes, an in-place rewrite could
// leave a mix of old and new pages — a catalog that parses into garbage
// descriptors, taking every object with it.  The region therefore holds
// TWO slots of CatalogPages pages each, written alternately; each write
// carries a monotonic sequence number and a CRC over the whole payload.
// Recovery parses both slots and loads the newest one whose CRC is
// intact: a torn write invalidates only the slot being written, and the
// previous image — whose index pages are protected from reuse by the
// durability quarantine until a quiescent checkpoint — takes over.
//
// Slot layout: magic u32, seq u64, payloadLen u32, crc u32 (over the
// payload), then the payload: count u32, then per entry
// id u64, nameLen u16, descLen u32, name, descriptor bytes.

const (
	catalogMagic    = 0xE05CA7A1
	catSlotHdrSize  = 4 + 8 + 4 + 4
	catEntryHdrSize = 8 + 2 + 4 // id, nameLen, descLen
)

// catalogRegionPages is the number of pages reserved after the header:
// two slots of CatalogPages each.
func catalogRegionPages(opts Options) int { return 2 * opts.CatalogPages }

// catSlotStart returns the first page of slot k (k = 0 or 1).
func (s *Store) catSlotStart(k int) disk.PageNum {
	return disk.PageNum(1 + k*s.opts.CatalogPages)
}

// writeCatalog serializes every descriptor into the next catalog slot.
// Caller holds s.mu.
//
// eos:requires s.mu
func (s *Store) writeCatalog() error {
	names := make([]string, 0, len(s.catalog))
	for n := range s.catalog {
		names = append(names, n)
	}
	sort.Strings(names)

	payload := make([]byte, 4, 256)
	count := 0
	for _, n := range names {
		e := s.catalog[n]
		// Persist the last committed state — refreshed at every commit
		// point, so for a clean entry it IS the current state.  A
		// never-committed object is simply omitted.  Deliberately
		// latch-free: an operation stalled in allocation backpressure
		// holds its object's write latch while waiting for exactly this
		// barrier to complete, so taking latches here would deadlock.
		desc := e.loadStableDesc()
		if desc == nil {
			continue
		}
		var hdr [catEntryHdrSize]byte
		binary.BigEndian.PutUint64(hdr[0:], e.id)
		binary.BigEndian.PutUint16(hdr[8:], uint16(len(n)))
		binary.BigEndian.PutUint32(hdr[10:], uint32(len(desc)))
		payload = append(payload, hdr[:]...)
		payload = append(payload, n...)
		payload = append(payload, desc...)
		count++
	}
	binary.BigEndian.PutUint32(payload[0:], uint32(count))

	ps := s.vol.PageSize()
	if err := s.catalogFits(len(payload)); err != nil {
		return err
	}
	seq := s.catSeq + 1
	buf := make([]byte, catSlotHdrSize, catSlotHdrSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:], catalogMagic)
	binary.BigEndian.PutUint64(buf[4:], seq)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	start := s.catSlotStart(int(seq & 1))
	for p := 0; p < s.opts.CatalogPages; p++ {
		img, err := s.pool.FixNew(start + disk.PageNum(p))
		if err != nil {
			return err
		}
		lo := p * ps
		if lo < len(buf) {
			hi := lo + ps
			if hi > len(buf) {
				hi = len(buf)
			}
			copy(img, buf[lo:hi])
		}
		if err := s.pool.Unpin(start + disk.PageNum(p)); err != nil {
			return err
		}
	}
	s.catSeq = seq
	return nil
}

// catalogFits reports ErrCatalogFull when a payload of n bytes does not
// fit one catalog slot.
func (s *Store) catalogFits(n int) error {
	if need := catSlotHdrSize + n; need > s.opts.CatalogPages*s.vol.PageSize() {
		return fmt.Errorf("%w: catalog needs %d bytes, %d pages per slot reserved",
			ErrCatalogFull, need, s.opts.CatalogPages)
	}
	return nil
}

// reserveCatalog admits t's commit only if the catalog still fits one
// slot once t's objects carry their new descriptors.  It runs before
// the commit record is logged: a commit admitted and then unable to
// write its catalog would leave a log that recovery cannot checkpoint.
// Other commits' reservations count at their reserved size, so
// concurrent admissions cannot overbook the slot.  Caller holds s.mu.
//
// eos:requires s.mu
func (s *Store) reserveCatalog(t *Txn) error {
	for _, to := range t.touched {
		if to.entry.txnDirty == t.id {
			to.entry.reserved = to.entry.obj.DescriptorLen()
		}
	}
	n := 4 // entry count
	for name, e := range s.catalog {
		desc := e.reserved
		if e.txnDirty != t.id {
			desc = max(desc, len(e.loadStableDesc()))
		}
		if desc > 0 {
			n += catEntryHdrSize + len(name) + desc
		}
	}
	err := s.catalogFits(n)
	if err != nil {
		for _, to := range t.touched {
			if to.entry.txnDirty == t.id {
				to.entry.reserved = 0
			}
		}
	}
	return err
}

// readCatalogSlot loads and validates one slot, returning its sequence
// number and payload (nil if the slot is empty, torn, or corrupt).
func (s *Store) readCatalogSlot(k int) (uint64, []byte, error) {
	ps := s.vol.PageSize()
	start := s.catSlotStart(k)
	buf := make([]byte, 0, s.opts.CatalogPages*ps)
	for p := 0; p < s.opts.CatalogPages; p++ {
		img, err := s.pool.Fix(start + disk.PageNum(p))
		if err != nil {
			return 0, nil, err
		}
		buf = append(buf, img...)
		if err := s.pool.Unpin(start + disk.PageNum(p)); err != nil {
			return 0, nil, err
		}
	}
	if binary.BigEndian.Uint32(buf[0:]) != catalogMagic {
		return 0, nil, nil
	}
	seq := binary.BigEndian.Uint64(buf[4:])
	plen := int(binary.BigEndian.Uint32(buf[12:]))
	if plen < 4 || catSlotHdrSize+plen > len(buf) {
		return 0, nil, nil
	}
	payload := buf[catSlotHdrSize : catSlotHdrSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[16:]) {
		return 0, nil, nil
	}
	return seq, payload, nil
}

// readCatalog loads every descriptor from the newest intact catalog
// slot.  Caller holds no locks (called during Open).
func (s *Store) readCatalog() error {
	var payload []byte
	var seq uint64
	for k := 0; k < 2; k++ {
		sq, pl, err := s.readCatalogSlot(k)
		if err != nil {
			return err
		}
		if pl != nil && (payload == nil || sq > seq) {
			seq, payload = sq, pl
		}
	}
	if payload == nil {
		return fmt.Errorf("%w: no intact catalog slot", ErrCorruptStore)
	}
	s.catSeq = seq
	count := int(binary.BigEndian.Uint32(payload[0:]))
	off := 4
	for i := 0; i < count; i++ {
		if off+catEntryHdrSize > len(payload) {
			return fmt.Errorf("%w: truncated catalog", ErrCorruptStore)
		}
		id := binary.BigEndian.Uint64(payload[off:])
		nameLen := int(binary.BigEndian.Uint16(payload[off+8:]))
		descLen := int(binary.BigEndian.Uint32(payload[off+10:]))
		off += catEntryHdrSize
		if off+nameLen+descLen > len(payload) {
			return fmt.Errorf("%w: truncated catalog entry", ErrCorruptStore)
		}
		name := string(payload[off : off+nameLen])
		off += nameLen
		desc := append([]byte{}, payload[off:off+descLen]...)
		obj, err := s.lm.OpenDescriptor(desc)
		if err != nil {
			return fmt.Errorf("object %q: %w", name, err)
		}
		off += descLen
		e := &catEntry{id: id, name: name, obj: obj}
		e.setStableDesc(desc)
		s.catalog[name] = e
		s.byID[id] = e
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	return nil
}
