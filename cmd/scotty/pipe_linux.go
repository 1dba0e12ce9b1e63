package main

import (
	"os"
	"syscall"
)

// growPipe asks the kernel for a stdoutPipeSize buffer on f. When f is not a
// pipe, or the size is over what the process may ask for
// (/proc/sys/fs/pipe-max-size), the call fails and f keeps its buffer: a run
// is then only slower, so the failure is not reported.
func growPipe(f *os.File) {
	if rc, err := f.SyscallConn(); err == nil {
		_ = rc.Control(func(fd uintptr) {
			syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETPIPE_SZ, stdoutPipeSize)
		})
	}
}
