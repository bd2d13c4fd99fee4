package vfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestMkdirAllAndStat(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("cluster/alan/net"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"cluster", "cluster/alan", "cluster/alan/net"} {
		exists, isDir := fs.Stat(p)
		if !exists || !isDir {
			t.Fatalf("Stat(%q) = (%v,%v), want dir", p, exists, isDir)
		}
	}
	if exists, _ := fs.Stat("cluster/maui"); exists {
		t.Fatal("nonexistent path reported as existing")
	}
	// Idempotent.
	if err := fs.MkdirAll("cluster/alan/net"); err != nil {
		t.Fatal(err)
	}
}

func TestCreateAndReadFile(t *testing.T) {
	fs := New()
	val := 2.5
	err := fs.Create("cluster/alan/loadavg", func() (string, error) {
		return fmt.Sprintf("%.2f", val), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("cluster/alan/loadavg")
	if err != nil || got != "2.50" {
		t.Fatalf("ReadFile = (%q, %v)", got, err)
	}
	// Content is generated at read time: mutate and re-read.
	val = 7.25
	got, _ = fs.ReadFile("cluster/alan/loadavg")
	if got != "7.25" {
		t.Fatalf("second read = %q, want fresh content", got)
	}
	exists, isDir := fs.Stat("cluster/alan/loadavg")
	if !exists || isDir {
		t.Fatal("file Stat wrong")
	}
}

func TestCreateMakesParents(t *testing.T) {
	fs := New()
	if err := fs.Create("a/b/c/file", StaticRead("x"), nil); err != nil {
		t.Fatal(err)
	}
	if exists, isDir := fs.Stat("a/b/c"); !exists || !isDir {
		t.Fatal("parents not created")
	}
}

func TestWriteControlFile(t *testing.T) {
	fs := New()
	var received string
	err := fs.Create("cluster/alan/control", StaticRead(""), func(data string) error {
		received = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("cluster/alan/control", "period cpu 2"); err != nil {
		t.Fatal(err)
	}
	if received != "period cpu 2" {
		t.Fatalf("control write delivered %q", received)
	}
}

func TestWriteReadOnlyFile(t *testing.T) {
	fs := New()
	if err := fs.Create("f", StaticRead("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", "data"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
}

func TestWriteCallbackErrorPropagates(t *testing.T) {
	fs := New()
	boom := errors.New("bad command")
	_ = fs.Create("control", nil, func(string) error { return boom })
	if err := fs.WriteFile("control", "x"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
}

func TestReadErrors(t *testing.T) {
	fs := New()
	_ = fs.MkdirAll("d")
	if _, err := fs.ReadFile("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.ReadFile("d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.WriteFile("d", "x"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateOverDirFails(t *testing.T) {
	fs := New()
	_ = fs.MkdirAll("cluster")
	if err := fs.Create("cluster", StaticRead(""), nil); !errors.Is(err, ErrIsDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateThroughFileFails(t *testing.T) {
	fs := New()
	_ = fs.Create("f", StaticRead(""), nil)
	if err := fs.Create("f/child", StaticRead(""), nil); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.MkdirAll("f/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecreateReplacesCallbacks(t *testing.T) {
	fs := New()
	_ = fs.Create("f", StaticRead("old"), nil)
	_ = fs.Create("f", StaticRead("new"), nil)
	got, _ := fs.ReadFile("f")
	if got != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestBadPaths(t *testing.T) {
	fs := New()
	for _, p := range []string{"a//b", "a/./b", "a/../b"} {
		if err := fs.MkdirAll(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("MkdirAll(%q) err = %v, want ErrBadPath", p, err)
		}
	}
	if err := fs.Create("/", StaticRead(""), nil); !errors.Is(err, ErrBadPath) {
		t.Errorf("Create root err = %v", err)
	}
	if err := fs.Remove("/"); !errors.Is(err, ErrBadPath) {
		t.Errorf("Remove root err = %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New()
	// The paper's Figure 1 hierarchy.
	for _, nodeName := range []string{"maui", "alan", "etna"} {
		_ = fs.MkdirAll("cluster/" + nodeName)
	}
	_ = fs.Create("cluster/alan/net", StaticRead(""), nil)
	_ = fs.Create("cluster/alan/cpu", StaticRead(""), nil)
	entries, err := fs.ReadDir("cluster")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alan", "etna", "maui"}
	if len(entries) != 3 {
		t.Fatalf("entries = %v", entries)
	}
	for i, e := range entries {
		if e.Name != want[i] || !e.IsDir {
			t.Fatalf("entries = %+v, want sorted dirs %v", entries, want)
		}
	}
	files, _ := fs.ReadDir("cluster/alan")
	if len(files) != 2 || files[0].Name != "cpu" || files[1].Name != "net" {
		t.Fatalf("alan entries = %+v", files)
	}
}

func TestReadDirOnFileFails(t *testing.T) {
	fs := New()
	_ = fs.Create("f", StaticRead(""), nil)
	if _, err := fs.ReadDir("f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	_ = fs.Create("cluster/alan/loadavg", StaticRead(""), nil)
	if err := fs.Remove("cluster/alan"); err != nil {
		t.Fatal(err)
	}
	if exists, _ := fs.Stat("cluster/alan/loadavg"); exists {
		t.Fatal("recursive remove left children")
	}
	if err := fs.Remove("cluster/alan"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("second remove err = %v", err)
	}
}

func TestTreeRendering(t *testing.T) {
	fs := New()
	// Figure 1: alan monitors mem/net/cpu/disk; maui net/cpu; etna net/cpu/disk.
	for nodeName, metricNames := range map[string][]string{
		"alan": {"mem", "net", "cpu", "disk"},
		"maui": {"net", "cpu"},
		"etna": {"net", "cpu", "disk"},
	} {
		for _, m := range metricNames {
			_ = fs.Create("cluster/"+nodeName+"/"+m, StaticRead(""), nil)
		}
	}
	tree, err := fs.Tree("cluster")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster/", "alan/", "maui/", "etna/", "mem", "disk"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// Depth-first, each directory's entries in sorted order.
	want := "cluster/\n" +
		"  alan/\n    cpu\n    disk\n    mem\n    net\n" +
		"  etna/\n    cpu\n    disk\n    net\n" +
		"  maui/\n    cpu\n    net\n"
	if tree != want {
		t.Fatalf("tree:\n%s\nwant:\n%s", tree, want)
	}
}

func TestRootListing(t *testing.T) {
	fs := New()
	_ = fs.MkdirAll("cluster")
	entries, err := fs.ReadDir("")
	if err != nil || len(entries) != 1 || entries[0].Name != "cluster" {
		t.Fatalf("root ReadDir = (%v, %v)", entries, err)
	}
	entries2, err := fs.ReadDir("/")
	if err != nil || len(entries2) != 1 {
		t.Fatalf("ReadDir(\"/\") = (%v, %v)", entries2, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodeName := fmt.Sprintf("node%d", i)
			for j := 0; j < 100; j++ {
				metric := fmt.Sprintf("cluster/%s/m%d", nodeName, j%5)
				if err := fs.Create(metric, StaticRead("v"), nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.ReadFile(metric); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.ReadDir("cluster/" + nodeName); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestReadFuncMayTraverseFS(t *testing.T) {
	// A read callback that itself reads the FS must not deadlock.
	fs := New()
	_ = fs.Create("a", StaticRead("base"), nil)
	_ = fs.Create("b", func() (string, error) {
		inner, err := fs.ReadFile("a")
		return "wrapped:" + inner, err
	}, nil)
	got, err := fs.ReadFile("b")
	if err != nil || got != "wrapped:base" {
		t.Fatalf("got (%q, %v)", got, err)
	}
}

// Stat reports whether path exists and whether it is a directory.
func (fs *FS) Stat(path string) (exists, isDir bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path)
	if err != nil {
		return false, false
	}
	return true, n.dir
}
