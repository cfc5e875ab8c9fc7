package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.img")

	v := MustNewVolume(128, 32, DefaultCostModel())
	want := bytes.Repeat([]byte{0xAB}, 3*128)
	if err := v.WritePages(5, 3, want); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	v2, err := LoadVolume(path, DefaultCostModel())
	if err != nil {
		t.Fatalf("LoadVolume: %v", err)
	}
	if v2.PageSize() != 128 || v2.NumPages() != 32 {
		t.Errorf("geometry = %d/%d", v2.PageSize(), v2.NumPages())
	}
	got, err := v2.Read(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("content lost across save/load")
	}
	// Loaded state is durable: a crash changes nothing.
	d := testCrash(t, v2)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Read(5, 3)
	if !bytes.Equal(got, want) {
		t.Error("loaded image not durable")
	}
}

func TestSaveFileImpliesForce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.img")
	v := MustNewVolume(64, 8, CostModel{})
	payload := bytes.Repeat([]byte{7}, 64)
	if err := v.WritePages(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	// Not forced — SaveFile must force before writing the image.
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadVolume(path, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := v2.Read(0, 1)
	if !bytes.Equal(got, payload) {
		t.Error("unforced write missing from saved image")
	}
}

func TestLoadVolumeRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	if err := os.WriteFile(path, []byte("not a volume"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadVolume(path, CostModel{}); err == nil {
		t.Error("garbage image accepted")
	}
	if _, err := LoadVolume(filepath.Join(dir, "missing.img"), CostModel{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadVolumeRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.img")
	v := MustNewVolume(64, 8, CostModel{})
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadVolume(path, CostModel{}); err == nil {
		t.Error("truncated image accepted")
	}
}

func TestFaultInjection(t *testing.T) {
	v := testCrash(t, MustNewVolume(64, 8, CostModel{}))
	boom := errors.New("boom")
	buf := make([]byte, 64)

	v.FailAfter(2, boom)
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatalf("request 1: %v", err)
	}
	if err := v.WritePages(0, 1, buf); err != nil {
		t.Fatalf("request 2: %v", err)
	}
	if err := v.ReadPages(0, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("request 3: err = %v, want boom", err)
	}
	if err := v.WritePages(0, 1, buf); !errors.Is(err, boom) {
		t.Fatalf("request 4: err = %v, want boom", err)
	}
	v.ClearFault()
	if err := v.ReadPages(0, 1, buf); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestSaveFileAtomicReplace(t *testing.T) {
	// A re-save goes through a temp sibling + rename: the final path
	// always holds a complete image and no temp file is left behind.
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.img")

	v := MustNewVolume(128, 16, DefaultCostModel())
	if err := v.WritePages(0, 1, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePages(0, 1, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp image left behind: %v", err)
	}
	v2, err := LoadVolume(path, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := v2.Read(0, 1)
	if !bytes.Equal(got, bytes.Repeat([]byte{2}, 128)) {
		t.Error("re-saved image holds stale content")
	}

	// A save into a missing directory fails without clobbering anything.
	if err := v.SaveFile(filepath.Join(dir, "nope", "vol.img")); err == nil {
		t.Error("save into missing directory succeeded")
	}
	if _, err := LoadVolume(path, DefaultCostModel()); err != nil {
		t.Errorf("original image damaged by failed save: %v", err)
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("SyncDir on a missing directory succeeded")
	}
}
