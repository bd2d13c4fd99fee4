package vfs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestModelBasedOperations drives the filesystem with random create, mkdir,
// remove, read and readdir operations, mirroring every mutation into a
// simple map model, and checks the two stay consistent. This is the
// correctness backbone for the pseudo-filesystem that everything else
// (control files, cluster hierarchy) sits on.
func TestModelBasedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	fs := New()
	model := map[string]string{} // file path -> content
	modelDirs := map[string]bool{}

	components := []string{"cluster", "alan", "maui", "etna", "cpu", "net", "history", "control"}
	randPath := func(depth int) string {
		parts := make([]string, 0, depth)
		for i := 0; i < depth; i++ {
			parts = append(parts, components[rng.Intn(len(components))])
		}
		return strings.Join(parts, "/")
	}
	// hasPrefixDir reports whether path is (a prefix of) an existing dir or
	// file, for predicting expected failures.
	conflictsWithFile := func(path string) bool {
		parts := strings.Split(path, "/")
		for i := 1; i <= len(parts); i++ {
			prefix := strings.Join(parts[:i], "/")
			if _, isFile := model[prefix]; isFile && i < len(parts) {
				return true
			}
		}
		return false
	}
	markDirs := func(path string) {
		parts := strings.Split(path, "/")
		for i := 1; i < len(parts); i++ {
			modelDirs[strings.Join(parts[:i], "/")] = true
		}
	}

	for step := 0; step < 4000; step++ {
		switch rng.Intn(5) {
		case 0: // create file
			path := randPath(rng.Intn(3) + 1)
			content := fmt.Sprintf("v%d", step)
			err := fs.Create(path, StaticRead(content), nil)
			if modelDirs[path] {
				if err == nil {
					t.Fatalf("step %d: Create(%q) over dir succeeded", step, path)
				}
				continue
			}
			if conflictsWithFile(path) {
				if err == nil {
					t.Fatalf("step %d: Create(%q) through file succeeded", step, path)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Create(%q): %v", step, path, err)
			}
			model[path] = content
			markDirs(path)
		case 1: // mkdir
			path := randPath(rng.Intn(3) + 1)
			err := fs.MkdirAll(path)
			if _, isFile := model[path]; isFile || conflictsWithFile(path) {
				if err == nil {
					t.Fatalf("step %d: MkdirAll(%q) over/through file succeeded", step, path)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: MkdirAll(%q): %v", step, path, err)
			}
			modelDirs[path] = true
			markDirs(path)
		case 2: // read file
			path := randPath(rng.Intn(3) + 1)
			content, err := fs.ReadFile(path)
			want, exists := model[path]
			if exists {
				if err != nil || content != want {
					t.Fatalf("step %d: ReadFile(%q) = (%q, %v), want %q", step, path, content, err, want)
				}
			} else if err == nil {
				t.Fatalf("step %d: ReadFile(%q) succeeded for non-file", step, path)
			}
		case 3: // readdir and compare listings
			path := randPath(rng.Intn(2))
			entries, err := fs.ReadDir(path)
			if !modelDirs[path] && path != "" {
				if _, isFile := model[path]; isFile || err == nil {
					if err == nil {
						t.Fatalf("step %d: ReadDir(%q) succeeded for non-dir", step, path)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: ReadDir(%q): %v", step, path, err)
			}
			// Expected children from the model.
			childSet := map[string]bool{}
			prefix := path
			if prefix != "" {
				prefix += "/"
			}
			for p := range model {
				if strings.HasPrefix(p, prefix) {
					rest := strings.TrimPrefix(p, prefix)
					childSet[strings.SplitN(rest, "/", 2)[0]] = true
				}
			}
			for p := range modelDirs {
				if p != path && strings.HasPrefix(p, prefix) {
					rest := strings.TrimPrefix(p, prefix)
					childSet[strings.SplitN(rest, "/", 2)[0]] = true
				}
			}
			var want []string
			for c := range childSet {
				want = append(want, c)
			}
			sort.Strings(want)
			got := make([]string, len(entries))
			for i, e := range entries {
				got[i] = e.Name
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: ReadDir(%q) = %v, want %v", step, path, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: ReadDir(%q) = %v, want %v", step, path, got, want)
				}
			}
		case 4: // remove (rarely, to keep the tree growing)
			if rng.Intn(4) != 0 {
				continue
			}
			path := randPath(rng.Intn(2) + 1)
			err := fs.Remove(path)
			_, isFile := model[path]
			isDir := modelDirs[path]
			if !isFile && !isDir {
				if err == nil {
					t.Fatalf("step %d: Remove(%q) of nothing succeeded", step, path)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: Remove(%q): %v", step, path, err)
			}
			delete(model, path)
			delete(modelDirs, path)
			prefix := path + "/"
			for p := range model {
				if strings.HasPrefix(p, prefix) {
					delete(model, p)
				}
			}
			for p := range modelDirs {
				if strings.HasPrefix(p, prefix) {
					delete(modelDirs, p)
				}
			}
		}
	}
	// Final sweep: every model file is readable with the right content.
	for path, want := range model {
		got, err := fs.ReadFile(path)
		if err != nil || got != want {
			t.Fatalf("final: ReadFile(%q) = (%q, %v), want %q", path, got, err, want)
		}
	}
	// Every model directory is there, as a directory.
	for path := range modelDirs {
		if exists, isDir := fs.Stat(path); !exists || !isDir {
			t.Fatalf("final: Stat(%q) = (%v, %v), want a directory", path, exists, isDir)
		}
	}
}
