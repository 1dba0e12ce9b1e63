package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestGrowPipe pins that growPipe leaves a pipe with at least stdoutPipeSize
// bytes of buffer, and that a file which is not a pipe is left alone.
func TestGrowPipe(t *testing.T) {
	if b, err := os.ReadFile("/proc/sys/fs/pipe-max-size"); err == nil {
		if max, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && max < stdoutPipeSize {
			t.Skipf("pipe-max-size %d is below stdoutPipeSize", max)
		}
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	growPipe(w)
	size, _, errno := syscall.Syscall(syscall.SYS_FCNTL, w.Fd(), syscall.F_GETPIPE_SZ, 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	if size < stdoutPipeSize {
		t.Fatalf("pipe buffer %d bytes after growPipe, want at least %d", size, stdoutPipeSize)
	}
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	growPipe(f) // not a pipe: the kernel refuses, nothing else happens
	if _, err := f.WriteString("row\n"); err != nil {
		t.Fatal(err)
	}
}
