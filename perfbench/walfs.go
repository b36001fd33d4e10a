package main

import (
	"io/fs"
	"os"
	"sync"
	"time"

	"birds/internal/wal"
)

// timedFS is the process filesystem behind the engine's wal.FS seam, with
// every WAL segment write and sync, and every checkpoint (temp-file create
// through rename), timed and recorded as spans.
type timedFS struct {
	tr *tracer

	mu        sync.Mutex
	syncs     samples // WAL segment fsyncs, ms
	walBytes  int64   // bytes appended to WAL segments
	ckpts     samples // checkpoint durations, ms
	ckptBytes int64
	open      map[string]time.Time // checkpoint temp files in flight
}

func newTimedFS(tr *tracer) *timedFS { return &timedFS{tr: tr, open: map[string]time.Time{}} }

// reset forgets what set-up wrote, so the figures cover the measured run.
func (f *timedFS) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs, f.walBytes, f.ckpts, f.ckptBytes = nil, 0, nil, 0
}

type walFigures struct {
	syncs     samples
	walBytes  int64
	ckpts     samples
	ckptBytes int64
}

func (f *timedFS) figures() walFigures {
	f.mu.Lock()
	defer f.mu.Unlock()
	return walFigures{append(samples(nil), f.syncs...), f.walBytes, append(samples(nil), f.ckpts...), f.ckptBytes}
}

func (f *timedFS) OpenFile(path string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return file, nil // reads and directory syncs
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) CreateTemp(dir, pattern string) (wal.File, error) {
	start := time.Now()
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.open[file.Name()] = start
	f.mu.Unlock()
	return &timedFile{File: file, fs: f, ckpt: true}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	end := time.Now()
	f.mu.Lock()
	start, ok := f.open[oldpath]
	delete(f.open, oldpath)
	if ok && err == nil {
		f.ckpts.add(end.Sub(start))
	}
	f.mu.Unlock()
	if ok {
		f.tr.record(0, "wal.checkpoint", 0, 0, start, end)
	}
	return err
}

func (f *timedFS) Remove(path string) error                     { return os.Remove(path) }
func (f *timedFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (f *timedFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (f *timedFS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (f *timedFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

// timedFile is a WAL segment or checkpoint temp file.
type timedFile struct {
	*os.File
	fs   *timedFS
	ckpt bool
}

func (t *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.File.Write(p)
	end := time.Now()
	t.fs.mu.Lock()
	if t.ckpt {
		t.fs.ckptBytes += int64(n)
	} else {
		t.fs.walBytes += int64(n)
	}
	t.fs.mu.Unlock()
	if !t.ckpt {
		t.fs.tr.record(0, "wal.write", 0, 0, start, end)
	}
	return n, err
}

func (t *timedFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	end := time.Now()
	if !t.ckpt {
		t.fs.mu.Lock()
		t.fs.syncs.add(end.Sub(start))
		t.fs.mu.Unlock()
		t.fs.tr.record(0, "wal.sync", 0, 0, start, end)
	}
	return err
}
