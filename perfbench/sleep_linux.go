package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newSleeper returns a sleep function that waits on a Linux timerfd
// through the runtime's network poller: the goroutine parks without
// holding a processor and wakes within tens of microseconds, where
// time.Sleep rounds short waits up to the next millisecond. close
// releases the timer. Without a timerfd it falls back to time.Sleep.
func newSleeper() (sleep func(time.Duration), close func()) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return time.Sleep, func() {}
	}
	f := os.NewFile(fd, "timerfd")
	var buf [8]byte
	return func(d time.Duration) {
		spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(d)
			return
		}
		if _, err := f.Read(buf[:]); err != nil {
			time.Sleep(d)
		}
	}, func() { f.Close() }
}
