package main

import (
	"bytes"
	"math"
	"os"
	"strconv"
)

// The benchmark has to hold its bounds on small shared virtual machines,
// where the hypervisor takes anything from 0% to 60% of the CPU time away
// ("steal") for a minute at a time: uncorrected, the same binary measures a
// third of the throughput it did a minute before. So every timed section is
// bracketed by two reads of the CPU counters in /proc/stat and corrected for
// the steal that fell inside it. README.md ("Timing on a machine that is not
// ours alone") has the measurements the rules below were chosen from.

// cpuTicks is a reading of the machine-wide CPU counters, in ticks.
type cpuTicks struct {
	busy  int64 // user + nice + system + irq + softirq
	steal int64
	ok    bool
}

// readCPU reads the first line of /proc/stat,
// "cpu user nice system idle iowait irq softirq steal ...". ok is false where
// the file does not exist or has no steal column.
func readCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTicks{}
	}
	var v [9]int64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseInt(string(f[i]), 10, 64); err != nil {
			return cpuTicks{}
		}
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8], ok: true}
}

// availability is the share of the CPU time the machine asked for between two
// readings that it got: busy / (busy + steal). A CPU accrues steal only while
// it has work to run, so this holds whether the work keeps every CPU busy or
// hands off between them. It is 1 where the counters are missing.
func availability(before, after cpuTicks) float64 {
	busy, steal := after.busy-before.busy, after.steal-before.steal
	if !before.ok || !after.ok || busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// net scales a CPU-bound wall-clock quantity measured between the two
// readings (a saturated run's wall time, the time a tuple spent inside
// scotty) to what it would have been with every CPU cycle asked for. The
// work is stretched once by the CPU being away and once more because the CPU
// time itself grows (netCPU), so the exponent would be 2; over the child runs
// in README.md it came out between 1.5 and 1.8. The lower end is used: best
// picks the fastest child runs, so an over-correction would be selected for,
// while an under-corrected child run merely loses to a quieter one.
func net(x, avail float64) float64 {
	avail = math.Max(avail, minAvail)
	return x * avail * math.Sqrt(avail)
}

// minAvail is the least availability a correction assumes. The rules here
// were fitted on sections that kept more than half of their CPU time; one
// that the hypervisor froze outright did no slow work during the freeze, and
// corrected in full it would come out faster than any quiet one.
const minAvail = 0.5

// netCPU scales a child's CPU time. CPU time is not stolen, but it grows
// with the interference that comes with steal (caches gone cold after every
// preemption): over the child runs in README.md, in proportion to 1/avail,
// on every workload.
func netCPU(x, avail float64) float64 { return x * math.Max(avail, minAvail) }
