package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// memFS is an FS that keeps its files in memory: the engine's files with
// no disk under them, behind NewMem. A sync costs nothing, but it is
// recorded as a disk would honour it: each file keeps the contents its
// last Sync made durable, and each directory the entries its last SyncDir
// did, which is what a simulated power loss keeps (Crash, in the tests).
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile            // by cleaned path
	dirs  map[string]map[string]*memFile // directory → base name → file, as of its last SyncDir
}

// memFile is one file's contents. Writes append to data. A slice of data
// handed out — durable, a reader's view — is capped at its length, and a
// truncation caps data itself, so no later write ever changes a byte
// someone else holds.
type memFile struct {
	data    []byte
	durable []byte // what the last Sync made durable
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memFile), dirs: make(map[string]map[string]*memFile)}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// file returns the named file, under m.mu.
func (m *memFS) file(op, name string) (*memFile, error) {
	if f := m.files[filepath.Clean(name)]; f != nil {
		return f, nil
	}
	return nil, notExist(op, name)
}

// create returns the named file, made if it does not exist, under m.mu.
func (m *memFS) create(name string) (*memFile, error) {
	name = filepath.Clean(name)
	if m.dirs[filepath.Dir(name)] == nil {
		return nil, notExist("open", filepath.Dir(name))
	}
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	}
	return f, nil
}

func (m *memFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.create(name)
	if err != nil {
		return nil, err
	}
	f.data = f.data[:0:0]
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.create(name)
	if err != nil {
		return nil, err
	}
	return &memHandle{fs: m, f: f}, nil
}

func (m *memFS) Open(name string) (io.ReadCloser, error) {
	data, err := m.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file("open", name)
	if err != nil {
		return nil, err
	}
	return f.data[:len(f.data):len(f.data)], nil
}

func (m *memFS) Size(name string) (int64, error) {
	data, err := m.ReadFile(name)
	return int64(len(data)), err
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file("rename", oldname)
	if err != nil {
		return err
	}
	newname = filepath.Clean(newname)
	if m.dirs[filepath.Dir(newname)] == nil {
		return notExist("rename", newname)
	}
	delete(m.files, filepath.Clean(oldname))
	m.files[newname] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.file("remove", name); err != nil {
		return err
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file("truncate", name)
	if err != nil {
		return err
	}
	return f.truncate(size)
}

func (f *memFile) truncate(size int64) error {
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("reldb: truncate to %d bytes of a %d-byte file", size, len(f.data))
	}
	f.data = f.data[:size:size]
	return nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.dirs[dir] == nil {
		return nil, notExist("readdir", dir)
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll makes the directory and its parents. Directories themselves
// are durable at once.
func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir = filepath.Clean(dir); m.dirs[dir] == nil; dir = filepath.Dir(dir) {
		m.dirs[dir] = make(map[string]*memFile)
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if m.dirs[dir] == nil {
		return notExist("sync", dir)
	}
	entries := make(map[string]*memFile)
	for name, f := range m.files {
		if filepath.Dir(name) == dir {
			entries[filepath.Base(name)] = f
		}
	}
	m.dirs[dir] = entries
	return nil
}

// memHandle is a file of a memFS open for writing.
type memHandle struct {
	fs     *memFS
	f      *memFile
	closed bool
}

var errMemClosed = errors.New("reldb: file already closed")

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, errMemClosed
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errMemClosed
	}
	h.f.durable = h.f.data[:len(h.f.data):len(h.f.data)]
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errMemClosed
	}
	return h.f.truncate(size)
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errMemClosed
	}
	h.closed = true
	return nil
}
