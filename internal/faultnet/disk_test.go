package faultnet

import (
	"errors"
	"testing"

	"dproc/internal/tsdb"
)

// memFS is a tiny in-memory tsdb.FS so the injector's byte accounting can
// be checked without touching the real filesystem.
type memFS struct{ files map[string]*memFile }

type memFile struct{ buf []byte }

func newMemFS() *memFS { return &memFS{files: map[string]*memFile{}} }

func (m *memFS) MkdirAll(string) error { return nil }
func (m *memFS) ReadDir(string) ([]string, error) {
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	return out, nil
}
func (m *memFS) ReadFile(name string) ([]byte, error) {
	f, ok := m.files[name]
	if !ok {
		return nil, errors.New("memfs: not found")
	}
	return append([]byte(nil), f.buf...), nil
}
func (m *memFS) Create(name string) (tsdb.FileWriter, error) {
	f := &memFile{}
	m.files[name] = f
	return f, nil
}
func (m *memFS) Remove(name string) error { delete(m.files, name); return nil }

func (f *memFile) Write(p []byte) (int, error) { f.buf = append(f.buf, p...); return len(p), nil }
func (f *memFile) Sync() error                 { return nil }
func (f *memFile) Close() error                { return nil }

func TestDiskTearTruncatesAtExactOffset(t *testing.T) {
	base := newMemFS()
	d := NewDisk(base)
	d.TearWriteAt("wal-", 10)
	fw, err := d.Create("dir/wal-1.log")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fw.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("write 1: n=%d err=%v", n, err)
	}
	// Crosses byte 10: only 4 of 8 land, the disk dies.
	n, err := fw.Write(make([]byte, 8))
	if n != 4 || !errors.Is(err, ErrDiskTorn) {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if _, err := fw.Write([]byte{1}); !errors.Is(err, ErrDiskTorn) {
		t.Fatalf("post-tear write: %v", err)
	}
	if err := fw.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("post-tear sync: %v", err)
	}
	if got := len(base.files["dir/wal-1.log"].buf); got != 10 {
		t.Fatalf("on-disk bytes = %d, want 10", got)
	}
	st := d.Stats()
	if st.WritesTorn != 1 || st.WritesRefused != 1 || st.BytesWritten != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskTearIgnoresOtherFiles(t *testing.T) {
	d := NewDisk(newMemFS())
	d.TearWriteAt("wal-", 0)
	fw, _ := d.Create("dir/chunks-1.dat")
	if n, err := fw.Write(make([]byte, 32)); n != 32 || err != nil {
		t.Fatalf("chunk write hit the wal tear rule: n=%d err=%v", n, err)
	}
}

func TestDiskSpaceLimit(t *testing.T) {
	base := newMemFS()
	d := NewDisk(base)
	d.LimitSpace(10)
	fw, _ := d.Create("f")
	if n, err := fw.Write(make([]byte, 8)); n != 8 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	n, err := fw.Write(make([]byte, 8))
	if n != 2 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over budget: n=%d err=%v", n, err)
	}
	if n, err := fw.Write([]byte{1}); n != 0 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted: n=%d err=%v", n, err)
	}
	if got := len(base.files["f"].buf); got != 10 {
		t.Fatalf("on-disk bytes = %d, want 10", got)
	}
}

func TestDiskShortReads(t *testing.T) {
	base := newMemFS()
	d := NewDisk(base)
	fw, _ := d.Create("chunks-1.dat")
	fw.Write(make([]byte, 100))
	d.ShortReads("chunks-", 40)
	buf, err := d.ReadFile("chunks-1.dat")
	if err != nil || len(buf) != 40 {
		t.Fatalf("short read: len=%d err=%v", len(buf), err)
	}
	if st := d.Stats(); st.ReadsTruncated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	d.ShortReads("", -1)
	if buf, _ = d.ReadFile("chunks-1.dat"); len(buf) != 100 {
		t.Fatalf("disarmed short read: len=%d", len(buf))
	}
}

func TestDiskPowerCutKeepsWhatWasSynced(t *testing.T) {
	base := newMemFS()
	d := NewDisk(base)
	write := func(name string, chunks ...int) tsdb.FileWriter {
		fw, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range chunks {
			if i > 0 {
				if err := fw.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := fw.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		return fw
	}
	write("never", 30)
	write("partly", 10, 20, 5) // synced after 10 and after 30
	if err := write("whole", 12).Sync(); err != nil {
		t.Fatal(err)
	}
	write("gone", 7)
	if err := d.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := d.PowerCut(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"never": 0, "partly": 30, "whole": 12} {
		if got := len(base.files[name].buf); got != want {
			t.Fatalf("%s holds %d bytes after the power cut, want %d", name, got, want)
		}
	}
	if _, ok := base.files["gone"]; ok {
		t.Fatal("a removed file came back")
	}
}
