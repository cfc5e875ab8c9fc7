package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Two persistence shapes exist, and this file is the bridge between
// them:
//
//   - Volume *images* (SaveFile/LoadVolume): a flat snapshot of a
//     simulator volume's pages, for the command-line tools.
//
//   - FileVolume's *native* format: a live page file the real backend
//     reads and writes in place (see filevol.go).
//
// MigrateToFile and MigrateToSim convert between the backends by
// copying pages through the Device interface, so a store formatted on
// the simulator can move to real files and back without the engine
// noticing.

const (
	imageMagic   = 0xE05F11E1
	imageVersion = 1
)

// SaveFile stores the volume image — every write so far — at path.  The
// image is written to a temporary sibling and renamed into place after
// an fsync, so an interrupted save can never leave a torn image where a
// good one (or nothing) used to be; the directory is fsynced afterwards
// so the rename itself survives a crash.
func (v *Volume) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = func() error {
		w := bufio.NewWriter(f)
		var hdr [20]byte
		binary.BigEndian.PutUint32(hdr[0:], imageMagic)
		binary.BigEndian.PutUint32(hdr[4:], imageVersion)
		binary.BigEndian.PutUint32(hdr[8:], uint32(v.pageSize))
		binary.BigEndian.PutUint64(hdr[12:], uint64(v.numPages))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		v.mu.RLock()
		_, err := w.Write(v.data)
		v.mu.RUnlock()
		if err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// LoadVolume reads a volume image previously written by SaveFile.  The
// model parameterizes the simulated cost accounting of the new volume.
func LoadVolume(path string, model CostModel) (*Volume, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("disk: short volume image: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != imageMagic ||
		binary.BigEndian.Uint32(hdr[4:]) != imageVersion {
		return nil, fmt.Errorf("disk: %s is not a volume image", path)
	}
	pageSize := int(binary.BigEndian.Uint32(hdr[8:]))
	numPages := PageNum(binary.BigEndian.Uint64(hdr[12:]))
	v, err := NewVolume(pageSize, numPages, model)
	if err != nil {
		return nil, err
	}
	// The volume is not yet shared, but take mu anyway so the image
	// restore obeys the same discipline as every other page-data access.
	v.mu.Lock()
	_, err = io.ReadFull(r, v.data)
	v.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("disk: truncated volume image: %w", err)
	}
	return v, nil
}

// migrateChunk is how many pages CopyDevice moves per request — large
// enough to amortize per-request cost, small enough to bound the copy
// buffer.
const migrateChunk = 64

// CopyDevice copies every page of src into dst and forces the result.
// The geometries must match exactly.  Fault injection and tracing on
// either side apply as for any other I/O.
func CopyDevice(dst, src Device) error {
	if dst.PageSize() != src.PageSize() || dst.NumPages() != src.NumPages() {
		return fmt.Errorf("disk: migrate geometry mismatch: %d pages x %d bytes -> %d pages x %d bytes",
			src.NumPages(), src.PageSize(), dst.NumPages(), dst.PageSize())
	}
	pageSize := src.PageSize()
	total := src.NumPages()
	buf := make([]byte, migrateChunk*pageSize)
	for p := PageNum(0); p < total; p += migrateChunk {
		n := migrateChunk
		if rem := int(total - p); rem < n {
			n = rem
		}
		chunk := buf[:n*pageSize]
		if err := src.ReadPages(p, n, chunk); err != nil {
			return fmt.Errorf("disk: migrate read pages [%d,%d): %w", p, int64(p)+int64(n), err)
		}
		if err := dst.WritePages(p, n, chunk); err != nil {
			return fmt.Errorf("disk: migrate write pages [%d,%d): %w", p, int64(p)+int64(n), err)
		}
	}
	return dst.ForceAll()
}

// MigrateToFile exports src (any backend, typically the simulator)
// into a new file-backed volume at path with identical geometry.  On
// error the partially-written file is removed.
func MigrateToFile(src Device, path string, opts FileOptions) (*FileVolume, error) {
	fv, err := CreateFileVolume(path, src.PageSize(), src.NumPages(), opts)
	if err != nil {
		return nil, err
	}
	if err := CopyDevice(fv, src); err != nil {
		_ = fv.Close()
		_ = os.Remove(path)
		return nil, err
	}
	return fv, nil
}

// MigrateToSim imports src (any backend, typically a FileVolume) into
// a new simulator volume with identical geometry, costed by model.
// The copy itself is excluded from the new volume's statistics.
func MigrateToSim(src Device, model CostModel) (*Volume, error) {
	v, err := NewVolume(src.PageSize(), src.NumPages(), model)
	if err != nil {
		return nil, err
	}
	if err := CopyDevice(v, src); err != nil {
		return nil, err
	}
	v.ResetStats()
	return v, nil
}
