// Package durable writes files that survive a crash or power loss in a
// well-defined state: a file written by WriteFileAtomic, or created by
// OpenAppend, appears under its final name complete or not at all.
// Both go through one temp-file + fsync + rename + directory-fsync path.
package durable

import (
	"errors"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data under path via temp-file + fsync + rename +
// directory fsync: readers see the old content or the complete new
// content, never a torn file.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// OpenAppend opens path for appending. A missing file is first created
// holding initial through WriteFileAtomic, so a crash during creation
// never leaves a half-written file under the final name. An existing
// file is opened as is; initial is then ignored.
func OpenAppend(path string, initial []byte) (*os.File, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		if err := WriteFileAtomic(path, initial); err != nil {
			return nil, err
		}
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems refuse directory fsync, and they lose
// nothing but the stronger guarantee.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
