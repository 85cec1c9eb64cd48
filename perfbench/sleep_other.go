//go:build !linux

package main

import "time"

// newSleeper falls back to time.Sleep where there is no timerfd.
func newSleeper() (sleep func(time.Duration), close func()) {
	return time.Sleep, func() {}
}
