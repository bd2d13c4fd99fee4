// Package vfs implements the /proc-style pseudo-filesystem through which
// dproc exposes monitoring data. The paper mounts real procfs entries
// (/proc/cluster/<node>/loadavg plus a control file per node); this
// user-space equivalent reproduces the same contract — hierarchical paths,
// files whose content is generated on read by a callback, and control files
// whose writes are parsed by a callback — without the kernel mount.
package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by filesystem operations.
var (
	ErrNotExist = errors.New("vfs: path does not exist")
	ErrIsDir    = errors.New("vfs: path is a directory")
	ErrNotDir   = errors.New("vfs: path component is not a directory")
	ErrReadOnly = errors.New("vfs: file is not writable")
	ErrBadPath  = errors.New("vfs: invalid path")
)

// ReadFunc produces a file's content at read time.
type ReadFunc func() (string, error)

// WriteFunc consumes data written to a file (e.g. control commands).
type WriteFunc func(data string) error

// StaticRead returns a ReadFunc serving fixed content.
func StaticRead(content string) ReadFunc {
	return func() (string, error) { return content, nil }
}

type node struct {
	name     string
	dir      bool
	children map[string]*node // dir only
	read     ReadFunc         // file only
	write    WriteFunc        // file only, may be nil
}

// FS is an in-memory pseudo-filesystem. All methods are safe for concurrent
// use.
type FS struct {
	mu   sync.RWMutex
	root *node
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{root: &node{name: "", dir: true, children: map[string]*node{}}}
}

// splitPath validates and splits a slash-separated path. The empty string
// and "/" denote the root.
func splitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, path)
		}
	}
	return parts, nil
}

// lookup walks to the node at path. Caller holds at least a read lock.
func (fs *FS) lookup(path string) (*node, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur := fs.root
	for _, p := range parts {
		if !cur.dir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		next, ok := cur.children[p]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, path)
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates a directory and any missing parents; it is a no-op if the
// directory exists.
func (fs *FS) MkdirAll(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, p := range parts {
		next, ok := cur.children[p]
		if !ok {
			next = &node{name: p, dir: true, children: map[string]*node{}}
			cur.children[p] = next
		} else if !next.dir {
			return fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		cur = next
	}
	return nil
}

// Create registers a file at path with the given read and (optional) write
// callbacks, creating parent directories as needed. Re-creating an existing
// file replaces its callbacks, which lets monitoring modules refresh their
// entries.
func (fs *FS) Create(path string, read ReadFunc, write WriteFunc) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot create root", ErrBadPath)
	}
	if read == nil {
		read = StaticRead("")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur.children[p]
		if !ok {
			next = &node{name: p, dir: true, children: map[string]*node{}}
			cur.children[p] = next
		} else if !next.dir {
			return fmt.Errorf("%w: %q", ErrNotDir, path)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	if existing, ok := cur.children[name]; ok {
		if existing.dir {
			return fmt.Errorf("%w: %q", ErrIsDir, path)
		}
		existing.read = read
		existing.write = write
		return nil
	}
	cur.children[name] = &node{name: name, read: read, write: write}
	return nil
}

// Remove deletes the file or directory (recursively) at path.
func (fs *FS) Remove(path string) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: cannot remove root", ErrBadPath)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.root
	for _, p := range parts[:len(parts)-1] {
		next, ok := cur.children[p]
		if !ok || !next.dir {
			return fmt.Errorf("%w: %q", ErrNotExist, path)
		}
		cur = next
	}
	name := parts[len(parts)-1]
	if _, ok := cur.children[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	delete(cur.children, name)
	return nil
}

// ReadFile returns the content of the file at path, invoking its ReadFunc.
func (fs *FS) ReadFile(path string) (string, error) {
	fs.mu.RLock()
	n, err := fs.lookup(path)
	if err != nil {
		fs.mu.RUnlock()
		return "", err
	}
	if n.dir {
		fs.mu.RUnlock()
		return "", fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	read := n.read
	fs.mu.RUnlock()
	// Callback runs outside the lock: read handlers may traverse the FS.
	return read()
}

// WriteFile delivers data to the file's WriteFunc (control files).
func (fs *FS) WriteFile(path, data string) error {
	fs.mu.RLock()
	n, err := fs.lookup(path)
	if err != nil {
		fs.mu.RUnlock()
		return err
	}
	if n.dir {
		fs.mu.RUnlock()
		return fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	write := n.write
	fs.mu.RUnlock()
	if write == nil {
		return fmt.Errorf("%w: %q", ErrReadOnly, path)
	}
	return write(data)
}

// DirEntry describes one child of a directory.
type DirEntry struct {
	Name  string
	IsDir bool
}

// ReadDir lists the entries of the directory at path, sorted by name.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	out := make([]DirEntry, 0, len(n.children))
	for _, child := range n.children {
		out = append(out, DirEntry{Name: child.name, IsDir: child.dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Tree renders the hierarchy as an indented listing rooted at path, the
// textual analogue of the paper's Figure 1.
func (fs *FS) Tree(path string) (string, error) {
	entries, err := fs.ReadDir(path)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	base := strings.Trim(path, "/")
	if base == "" {
		sb.WriteString("/\n")
	} else {
		sb.WriteString(base + "/\n")
	}
	var render func(prefix, dir string) error
	render = func(prefix, dir string) error {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			sb.WriteString(prefix + e.Name)
			if e.IsDir {
				sb.WriteString("/")
			}
			sb.WriteString("\n")
			if e.IsDir {
				if err := render(prefix+"  ", joinPath(dir, e.Name)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	_ = entries
	if err := render("  ", path); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func joinPath(dir, name string) string {
	dir = strings.Trim(dir, "/")
	if dir == "" {
		return name
	}
	return dir + "/" + name
}
