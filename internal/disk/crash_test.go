package disk

import (
	"bytes"
	"errors"
	"testing"
)

const crashPS = 64

// crashBackends builds a fresh 16-page inner device per backend.
var crashBackends = map[string]func(t *testing.T) Device{
	"sim":  func(t *testing.T) Device { return MustNewVolume(crashPS, 16, DefaultCostModel()) },
	"file": func(t *testing.T) Device { return testFileVolume(t, crashPS, 16, FileOptions{}) },
}

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, crashPS) }

func mustWrite(t *testing.T, d Device, p PageNum, b byte) {
	t.Helper()
	if err := d.WritePages(p, 1, fill(b)); err != nil {
		t.Fatalf("WritePages(%d): %v", p, err)
	}
}

// wantPages checks page p holds fill(want[p]) for every listed page.
func wantPages(t *testing.T, d Device, want map[PageNum]byte) {
	t.Helper()
	for p, b := range want {
		got, err := d.Read(p, 1)
		if err != nil {
			t.Fatalf("Read(%d): %v", p, err)
		}
		if !bytes.Equal(got, fill(b)) {
			t.Errorf("page %d = %x..., want %x...", p, got[:4], fill(b)[:4])
		}
	}
}

func mustCrash(t *testing.T, d *CrashDevice) {
	t.Helper()
	if err := d.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if n := d.DirtyPages(); n != 0 {
		t.Fatalf("DirtyPages after crash = %d, want 0", n)
	}
}

func TestCrashDevice(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		run  func(t *testing.T, d *CrashDevice)
	}{
		{"unforced write lost", func(t *testing.T, d *CrashDevice) {
			mustWrite(t, d, 3, 1)
			if err := d.Force(3, 1); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, d, 3, 2)
			mustWrite(t, d, 4, 2)
			if n := d.DirtyPages(); n != 2 {
				t.Fatalf("DirtyPages = %d, want 2", n)
			}
			mustCrash(t, d)
			wantPages(t, d, map[PageNum]byte{3: 1, 4: 0})
		}},
		{"force covers only its range", func(t *testing.T, d *CrashDevice) {
			for p := PageNum(0); p < 4; p++ {
				mustWrite(t, d, p, byte(p+1))
			}
			if err := d.Force(1, 2); err != nil {
				t.Fatal(err)
			}
			mustCrash(t, d)
			wantPages(t, d, map[PageNum]byte{0: 0, 1: 2, 2: 3, 3: 0})
		}},
		{"skipped page stays volatile", func(t *testing.T, d *CrashDevice) {
			for p := PageNum(0); p < 4; p++ {
				mustWrite(t, d, p, byte(p+1))
			}
			if err := d.ForceAllExcept(map[PageNum]bool{2: true}); err != nil {
				t.Fatal(err)
			}
			if n := d.DirtyPages(); n != 1 {
				t.Fatalf("DirtyPages = %d, want 1 (the skipped page)", n)
			}
			mustCrash(t, d)
			wantPages(t, d, map[PageNum]byte{0: 1, 1: 2, 2: 0, 3: 4})
		}},
		{"torn write run keeps its prefix", func(t *testing.T, d *CrashDevice) {
			run := [][]byte{fill(0x10), fill(0x11), fill(0x12), fill(0x13)}
			d.TearWriteRun(2, boom)
			if err := d.WriteRun(4, run); !errors.Is(err, boom) {
				t.Fatalf("torn WriteRun: err = %v, want boom", err)
			}
			wantPages(t, d, map[PageNum]byte{4: 0x10, 5: 0x11, 6: 0, 7: 0})
			// The prefix was never forced, so a crash takes it too.
			mustCrash(t, d)
			wantPages(t, d, map[PageNum]byte{4: 0, 5: 0})
			// The injection disarms after firing once.
			if err := d.WriteRun(4, run); err != nil {
				t.Fatalf("WriteRun after tear: %v", err)
			}
		}},
		{"fault budget counts down", func(t *testing.T, d *CrashDevice) {
			buf := make([]byte, crashPS)
			d.FailAfter(2, boom)
			if err := d.ReadPages(0, 1, buf); err != nil {
				t.Fatalf("request 1: %v", err)
			}
			if err := d.WritePages(0, 1, buf); err != nil {
				t.Fatalf("request 2: %v", err)
			}
			if err := d.ReadPages(0, 1, buf); !errors.Is(err, boom) {
				t.Fatalf("request 3: err = %v, want boom", err)
			}
			if err := d.WriteRun(0, [][]byte{buf}); !errors.Is(err, boom) {
				t.Fatalf("request 4: err = %v, want boom", err)
			}
			d.ClearFault()
			if err := d.ReadPages(0, 1, buf); err != nil {
				t.Fatalf("after clear: %v", err)
			}
		}},
		{"crash resets stats", func(t *testing.T, d *CrashDevice) {
			mustWrite(t, d, 5, 7)
			if d.Stats().Writes == 0 {
				t.Fatal("write not counted")
			}
			mustCrash(t, d)
			if s := d.Stats(); s != (Stats{}) {
				t.Errorf("stats after crash = %+v, want zero", s)
			}
		}},
	}
	for backend, mk := range crashBackends {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				d, err := NewCrashDevice(mk(t))
				if err != nil {
					t.Fatalf("NewCrashDevice: %v", err)
				}
				tc.run(t, d)
			})
		}
	}
}

// TestCrashDeviceStatsParity runs one request mix on a bare device and
// on a wrapped one: the wrapper must not add, drop or reshape a single
// request the inner device accounts.
func TestCrashDeviceStatsParity(t *testing.T) {
	ops := func(t *testing.T, d Device) {
		buf := make([]byte, 2*crashPS)
		mustWrite(t, d, 3, 1)
		if err := d.WriteRun(8, [][]byte{fill(2), fill(3), fill(4)}); err != nil {
			t.Fatal(err)
		}
		if err := d.Force(8, 3); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPages(2, 2, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Read(9, 2); err != nil {
			t.Fatal(err)
		}
		if err := d.ForceAllExcept(map[PageNum]bool{3: true}); err != nil {
			t.Fatal(err)
		}
		if err := d.ForceAll(); err != nil {
			t.Fatal(err)
		}
	}
	for backend, mk := range crashBackends {
		t.Run(backend, func(t *testing.T) {
			bare := mk(t)
			inner := mk(t)
			d, err := NewCrashDevice(inner)
			if err != nil {
				t.Fatal(err)
			}
			ops(t, bare)
			ops(t, d)
			want, got := bare.Stats(), inner.Stats()
			if backend == "file" { // measured wall-clock time differs run to run
				want.Micros, got.Micros = 0, 0
			}
			if got != want {
				t.Errorf("wrapped stats %+v, bare %+v", got, want)
			}
		})
	}
}
