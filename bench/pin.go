package main

import (
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// A measured child has the last CPU this process may run on to itself and
// the generator keeps to the others, so that neither the generator's threads
// nor the kernel's placement of the child's decide a child run's time. With
// one CPU to run on (or CPUs beyond a mask word) nothing is pinned.

// childCPU returns the affinity masks of the child's CPU and of the rest,
// both zero where nothing is pinned.
var childCPU = sync.OnceValues(func() (child, rest uint64) {
	var allowed uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, 0
	}
	if bits.OnesCount64(allowed) < 2 {
		return 0, 0
	}
	child = 1 << (bits.Len64(allowed) - 1)
	return child, allowed &^ child
})

// setAffinity confines thread tid (0: the calling thread) to the CPUs in mask.
func setAffinity(tid int, mask uint64) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}

// confineSelf confines every thread of this process to the CPUs in mask;
// threads started afterwards inherit the mask of the thread that starts
// them, child processes that of the thread that forks. A zero mask (nothing
// is pinned on this machine) does nothing.
func confineSelf(mask uint64) {
	tasks, err := os.ReadDir("/proc/self/task")
	if mask == 0 || err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			setAffinity(tid, mask)
		}
	}
}

// startPinned starts cmd on the child's CPU: the thread that forks narrows
// its own mask for the duration of the fork, and the child and every thread
// it starts inherit it. The caller is confined to the rest, so that is what
// the forking thread goes back to.
func startPinned(cmd *exec.Cmd) error {
	child, rest := childCPU()
	if child == 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, child); err != nil {
		return cmd.Start()
	}
	defer setAffinity(0, rest)
	return cmd.Start()
}

// keepWarm spins a thread of idle priority on the child's CPU until stop is
// called, so that the virtual CPU never halts while an open-loop child waits
// for its next burst. A halted virtual CPU gives its core to other tenants
// and comes back cold: the same 1000-line burst then takes 1.05 ms instead of
// 0.65 ms, and whether most bursts of a child run do is a coin toss. The
// spinner yields to the child at once; it costs the child nothing but the
// halt.
func keepWarm() (stop func()) {
	child, _ := childCPU()
	if child == 0 {
		return func() {}
	}
	var done atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		// The thread is not unlocked: it ends with the goroutine, and its
		// priority and mask with it.
		runtime.LockOSThread()
		const schedIdle = 5
		var param int32 // sched_param{sched_priority: 0}
		if setAffinity(0, child) != nil {
			return
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
			return
		}
		for !done.Load() {
		}
	}()
	return func() { done.Store(true); <-finished }
}
