package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTimes reads the machine-wide busy, idle and stolen CPU time from
// the first line of /proc/stat, in clock ticks. ok is false where the
// file is missing or malformed.
func cpuTimes() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealWatch samples /proc/stat at every slice boundary of every
// measured phase, from its own goroutine, and keeps the share of each
// slice's CPU time that the hypervisor gave to other machines. wait
// returns the shares, indexed by phase and slice; they read 0 where
// /proc/stat is unavailable.
type stealWatch struct {
	done   chan struct{}
	shares [][windows]float64
}

func watchSteal(sched schedule) *stealWatch {
	s := &stealWatch{done: make(chan struct{}), shares: make([][windows]float64, sched.phases)}
	go func() {
		defer close(s.done)
		slice := sched.measure / windows
		time.Sleep(time.Until(sched.phaseStart(0)))
		prevTotal, prevSteal, ok := cpuTimes()
		for ph := 0; ph < sched.phases; ph++ {
			for w := 0; w < windows; w++ {
				time.Sleep(time.Until(sched.phaseStart(ph).Add(time.Duration(w+1) * slice)))
				total, steal, okNow := cpuTimes()
				if ok && okNow && total > prevTotal {
					s.shares[ph][w] = float64(steal-prevSteal) / float64(total-prevTotal)
				}
				prevTotal, prevSteal, ok = total, steal, okNow
			}
		}
	}()
	return s
}

func (s *stealWatch) wait() [][windows]float64 {
	<-s.done
	return s.shares
}
