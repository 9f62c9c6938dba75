package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// saveAtomic writes a file via tmp-then-rename so dst is never observed
// half-written, and syncs both the file and its parent directory so the
// rename is durable: File.Sync before the rename guarantees the data
// blocks reach disk before the new name can point at them (rename is
// atomic in the namespace, but a crash between rename and writeback
// would otherwise leave dst pointing at incomplete data), and the
// directory fsync afterwards makes the rename itself survive a crash.
// On any error path the temporary file is removed — an aborted save
// leaves no droppings next to dst.
func saveAtomic(dst string, write func(io.Writer) error) (err error) {
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close()      // double Close after success is harmless
			_ = os.Remove(tmp) // no-op once the rename happened
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(filepath.Dir(dst))
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveIndex writes idx to dst in the v3 container — the one format the
// program writes, which every backend serializes into and "serve -mmap"
// maps in place — and reports what it wrote.
func saveIndex(dst string, idx core.Index, out io.Writer) error {
	var size int64
	err := saveAtomic(dst, func(w io.Writer) (err error) {
		size, err = idx.WriteToV3(w)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "saved library to %s (format v3, %d bytes)\n", dst, size)
	return nil
}
