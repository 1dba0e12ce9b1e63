package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind outside bench/out: the
// scotty binary (and, through bench/run.sh, the Go build cache). It is
// relative to the checkout root, the benchmark's working directory.
const buildDir = ".bench_build"

// buildScotty compiles cmd/scotty from the checkout's source. After the
// first call the Go build cache makes this a staleness check plus a link.
func buildScotty() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "scotty"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/scotty")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/scotty: %v\n%s", err, out)
	}
	return bin, nil
}

// stamp says that by time t (since the run's start) the byte stream had
// reached offset end.
type stamp struct {
	end int
	t   time.Duration
}

// childRun is what one scotty process did with one input.
type childRun struct {
	wall      time.Duration // first byte written to stdout EOF
	user, sys time.Duration
	maxRSSKB  int64
	out       []byte
	reads     []stamp // stdout chunks: bytes up to end were read at t
	// writes are the stdin chunks: the clock of the events in bytes up to
	// end started at t. Closed loop: when the write began. Open loop: the
	// same, unless back-pressure held the burst up (see drivePaced).
	writes     []stamp
	writeBusy  time.Duration
	genLate    []float64 // open loop: ms each burst's write began after it was due
	exitErr    error
	stderrTail string
}

// closedChunk is the closed-loop write size. Each write is stamped when it
// begins, and that stamp is the due time of the events it carries, so the
// chunk is kept well below the 64 KiB pipe buffer: at one buffer per write
// the latency of a row would depend on where in the chunk its release event
// happened to fall.
const closedChunk = 8 << 10

// childProcs is the GOMAXPROCS every measured child runs with, confined to
// the machine's last CPU while the generator keeps to the others. scotty
// hands each line from a reader goroutine to the operator goroutine; on two
// scheduler threads that hand-off crosses virtual CPUs, and what it costs
// then depends on where the hypervisor has put them: the same binary on the
// same input took 0.7 s or 1.2 s for tens of seconds at a time, at no steal
// (README.md). On one scheduler thread scotty is both faster and repeatable,
// and the generator cannot get in its way.
const childProcs = "GOMAXPROCS=1"

// runChild feeds in.csv to a scotty child over a pipe and collects its
// output over another. With rate 0 the writer pushes as fast as the pipe
// accepts (closed loop: one writer goroutine, one reader goroutine); with a
// rate the input goes out in bursts on a fixed schedule, whether or not the
// child keeps up (open loop: drivePaced). Output is only stored and
// time-stamped here; parsing waits until the child has exited so it does not
// compete with it. A free child is the exception to childProcs: it runs as
// scotty does when started by hand, on every CPU with the default GOMAXPROCS.
func runChild(bin string, in *input, free bool) (*childRun, error) {
	cmd := exec.Command(bin, in.w.args...)
	start := cmd.Start
	if !free {
		cmd.Env = append(os.Environ(), childProcs)
		start = func() error { return startPinned(cmd) }
		child, rest := childCPU()
		confineSelf(rest)
		defer confineSelf(child | rest)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// The child's ends of both pipes stay in blocking mode, as a shell
	// would hand them over; ours are non-blocking for drivePaced, which
	// polls them, and wrapped in files for the closed loop, which parks.
	var inPipe, outPipe [2]int
	if err := syscall.Pipe2(inPipe[:], syscall.O_CLOEXEC); err != nil {
		return nil, err
	}
	childIn := os.NewFile(uintptr(inPipe[0]), "child-stdin")
	err := syscall.Pipe2(outPipe[:], syscall.O_CLOEXEC)
	if err != nil {
		childIn.Close()
		syscall.Close(inPipe[1])
		return nil, err
	}
	childOut := os.NewFile(uintptr(outPipe[1]), "child-stdout")
	cmd.Stdin, cmd.Stdout = childIn, childOut
	for _, fd := range []int{inPipe[1], outPipe[0]} {
		if err == nil {
			err = syscall.SetNonblock(fd, true)
		}
	}
	if err == nil {
		err = start()
	}
	childIn.Close()
	childOut.Close()
	if err != nil {
		syscall.Close(inPipe[1])
		syscall.Close(outPipe[0])
		return nil, err
	}

	run := &childRun{out: make([]byte, 0, 1<<20)}
	rssDone := make(chan int64, 1)
	stopRSS := make(chan struct{})
	go func() { rssDone <- watchPeakRSS(cmd.Process.Pid, stopRSS) }()
	var ioErr error
	if in.w.rate > 0 {
		if !free {
			defer keepWarm()()
		}
		ioErr = run.drivePaced(inPipe[1], outPipe[0], in)
	} else {
		ioErr = run.driveClosed(os.NewFile(uintptr(inPipe[1]), "to-child"), os.NewFile(uintptr(outPipe[0]), "from-child"), in.csv)
	}
	close(stopRSS)
	run.maxRSSKB = <-rssDone
	run.exitErr = cmd.Wait()
	run.stderrTail = tail(stderr.String(), 400)
	if run.exitErr == nil {
		// An I/O error with a clean exit means scotty stopped reading
		// early; with a failed exit it is only the broken pipe that follows.
		run.exitErr = ioErr
	}
	st := cmd.ProcessState
	run.user, run.sys = st.UserTime(), st.SystemTime()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok && run.maxRSSKB == 0 {
		run.maxRSSKB = ru.Maxrss // no /proc: the polluted figure is better than none
	}
	return run, nil
}

// grow makes room for another read at the end of out.
func (run *childRun) grow() []byte {
	if len(run.out) == cap(run.out) {
		run.out = append(run.out, 0)[:len(run.out)]
	}
	return run.out[len(run.out):cap(run.out)]
}

func (run *childRun) read(n int, start time.Time) {
	run.out = run.out[:len(run.out)+n]
	run.reads = append(run.reads, stamp{len(run.out), time.Since(start)})
}

// driveClosed is the closed loop: a writer goroutine pushes the input in
// closedChunk pieces as fast as the pipe takes them, this goroutine reads
// the rows. Both park while they wait; both files are closed on return.
func (run *childRun) driveClosed(w, r *os.File, csv []byte) error {
	defer r.Close()
	start := time.Now()
	writeDone := make(chan error, 1)
	go func() {
		var err error
		for off := 0; off < len(csv) && err == nil; {
			end := min(off+closedChunk, len(csv))
			t0 := time.Since(start)
			run.writes = append(run.writes, stamp{end, t0})
			_, err = w.Write(csv[off:end])
			run.writeBusy += time.Since(start) - t0
			off = end
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		writeDone <- err
	}()
	var readErr error
	for {
		n, err := r.Read(run.grow())
		if n > 0 {
			run.read(n, start)
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
	}
	run.wall = time.Since(start)
	return errors.Join(<-writeDone, readErr)
}

// burstOf returns the burst line i travels in. Burst 0 is the first `first`
// lines and every later burst is size lines, so that with in.burstFirst()
// the release events are the last lines of their bursts.
func burstOf(i, first, size int) int {
	if i < first {
		return 0
	}
	return 1 + (i-first)/size
}

// drivePaced is the open loop. Burst k of the input is due k burst periods
// after the start and is written then, whether or not scotty has caught up.
// One goroutine on one thread does all of it and never sleeps: it polls the
// clock, writes what is due and reads what has arrived, both without
// blocking. A sleeping generator wakes 0.3-0.6 ms late on a virtual machine
// and a parked reader sees a row 0.05-0.3 ms after it was written, which is
// as much as scotty takes for a burst; polling costs a CPU, and with scotty
// on one scheduler thread there is one to spare.
//
// The clock of a burst's events starts when its write begins. The generator
// being late by itself (the hypervisor took its CPU away) is not scotty's
// doing and stays out of the latency; genLate reports it. But if the write
// began late because an earlier burst was still stuck on a full pipe when
// this one came due, the clock starts when it was due: the wait a stall
// imposes on later input counts.
func (run *childRun) drivePaced(wfd, rfd int, in *input) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer syscall.Close(rfd)
	first, size, period := in.burstFirst(), in.w.burst, in.w.burstPeriod()
	var (
		n            = len(in.events)
		sent         = 0 // lines written in full
		burst        = 0
		pending      []byte        // rest of the burst being written
		writeStart   time.Duration // of the burst being written
		blocked      bool          // the pipe was full during it
		blockedUntil time.Duration // when the last such burst got through
		writeErr     error
		open         = true // our end of the child's stdin
	)
	closeIn := func() {
		if open {
			syscall.Close(wfd)
			open = false
		}
	}
	defer closeIn()
	start := time.Now()
	for {
		now := time.Since(start)
		if open && pending == nil {
			if due := time.Duration(burst) * period; now >= due {
				end := min(first+burst*size, n)
				from := 0
				if sent > 0 {
					from = in.lineEnd[sent-1]
				}
				pending, writeStart, blocked = in.csv[from:in.lineEnd[end-1]], now, false
				clock := now
				if blockedUntil > due {
					clock = due
				}
				run.writes = append(run.writes, stamp{in.lineEnd[end-1], clock})
				run.genLate = append(run.genLate, ms(now-due))
				sent = end
			}
		}
		if pending != nil {
			w, err := syscall.Write(wfd, pending)
			switch {
			case err == syscall.EAGAIN || err == syscall.EINTR:
				blocked = blocked || err == syscall.EAGAIN
			case err != nil:
				writeErr = err
				pending = pending[:0]
			default:
				pending = pending[w:]
			}
			if len(pending) == 0 {
				pending = nil
				done := time.Since(start)
				run.writeBusy += done - writeStart
				if blocked {
					blockedUntil = done
				}
				burst++
				if sent == n || writeErr != nil {
					closeIn()
				}
			}
		}
		r, err := syscall.Read(rfd, run.grow())
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
		case err != nil:
			return errors.Join(writeErr, err)
		case r == 0:
			run.wall = time.Since(start)
			return writeErr
		default:
			run.read(r, start)
		}
	}
}

// rssPoll is how often the child's high-water mark is read.
const rssPoll = 20 * time.Millisecond

// watchPeakRSS polls VmHWM in /proc/<pid>/status until stop closes and
// returns the last value read, in KiB. The rusage a parent gets from wait4
// cannot be used: exec folds the forking process's own peak into the child's
// ru_maxrss, so a child smaller than the generator would report the
// generator's memory. VmHWM is itself a high-water mark, so the last sample
// misses only growth in the child's final rssPoll.
func watchPeakRSS(pid int, stop <-chan struct{}) int64 {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	var peak int64
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(path); err == nil {
			if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
				f := bytes.Fields(data[i+len("VmHWM:"):])
				if len(f) > 0 {
					if kb, err := strconv.ParseInt(string(f[0]), 10, 64); err == nil && kb > peak {
						peak = kb
					}
				}
			}
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// timeAt returns when the byte at offset off passed a stamped boundary: the
// stamp of the first chunk that contains it.
func timeAt(stamps []stamp, off int) time.Duration {
	lo, hi := 0, len(stamps)
	for lo < hi {
		mid := (lo + hi) / 2
		if stamps[mid].end > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(stamps) {
		lo--
	}
	return stamps[lo].t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}
