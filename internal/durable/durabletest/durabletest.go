// Package durabletest injects write-side faults into durable.WriteFile
// for tests.
package durabletest

import (
	"os"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/durable"
)

// Inject makes durable.WriteFile fail with fault — "create" (a failing
// create), "enospc" (a short write with ENOSPC) or "fsync" (a failing
// fsync) — from the from-th save on (1-based), or only at it when once
// is set, until the test ends.
func Inject(t testing.TB, fault string, from int, once bool) {
	t.Helper()
	orig := durable.CreateTemp
	t.Cleanup(func() { durable.CreateTemp = orig })
	var n atomic.Int64
	durable.CreateTemp = func(name string) (durable.File, error) {
		i := int(n.Add(1))
		if i < from || once && i > from {
			return orig(name)
		}
		if fault == "create" {
			return nil, &os.PathError{Op: "open", Path: name, Err: syscall.EACCES}
		}
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		return faultyFile{File: f, short: fault == "enospc", failSync: fault == "fsync"}, nil
	}
}

// faultyFile is a temp file whose write is short with ENOSPC or whose
// fsync fails.
type faultyFile struct {
	*os.File
	short, failSync bool
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.short {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

func (f faultyFile) Sync() error {
	if f.failSync {
		return syscall.EIO
	}
	return f.File.Sync()
}
