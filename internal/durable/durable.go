// Package durable writes files so that a crash leaves either the
// previous file or the new one under the final name, never a torn or
// empty one. The census checkpoints and the census daemon's job store
// both save through it.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes data under path atomically and durably: a temp file
// next to it is written and fsynced, renamed over path, and the parent
// directory is synced after the rename, so a machine crash cannot
// surface an empty or stale file under the final name despite the
// rename's atomicity. The directory sync is best-effort — not every
// filesystem supports it. A failed create, write or fsync leaves the
// previous file under path.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	tf, err := CreateTemp(tmp)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// File is what WriteFile writes its temp file through.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// CreateTemp creates WriteFile's temp file. It is a variable so tests
// can inject write-side faults (package durabletest): a failing create,
// a short write, a failing fsync.
var CreateTemp = func(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}
