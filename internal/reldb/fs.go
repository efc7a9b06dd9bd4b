package reldb

import (
	"io"
	"os"
	"sort"
)

// FS is the engine's one filesystem seam: every open, append, write,
// sync, rename, remove, truncate, stat, read, directory listing and
// directory sync the engine makes goes through it. Two filesystems
// implement it: osFS, the operating system's, under a directory given to
// Open or OpenFile; and memFS, which keeps the same files in memory and
// stands behind NewMem. The engine is the same on both.
type FS interface {
	// Create creates the named file, or truncates it, for writing.
	Create(name string) (File, error)
	// Append opens the named file for appending, creating it if need be.
	Append(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	// ReadFile returns the named file's bytes; the caller must not
	// modify them.
	ReadFile(name string) ([]byte, error)
	Size(name string) (int64, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// ReadDir returns the names of the files in a directory, sorted.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
	// SyncDir makes the entries created, renamed or removed in a
	// directory durable.
	SyncDir(dir string) error
}

// File is a file of an FS open for writing. A write always lands at the
// end of the file.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's filesystem.
type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error)    { return os.ReadFile(name) }
func (osFS) Rename(oldname, newname string) error    { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error  { return os.Truncate(name, size) }
func (osFS) MkdirAll(dir string) error               { return os.MkdirAll(dir, 0o755) }

func (osFS) Size(name string) (int64, error) {
	info, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, err
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
