package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Pacing. Go timers round sleeps below a millisecond up to about one
// millisecond, far coarser than the ~0.1 ms a cache hit takes. A pacer
// instead waits on a Linux timerfd, which fires at the exact time and
// which the runtime's network poller watches, so the waiting goroutine
// parks without holding a processor the HTTP client needs. It wakes
// spinMargin early and spins the rest.

const spinMargin = 30 * time.Microsecond

type pacer struct {
	f  *os.File
	fd uintptr
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleepUntil returns at due or just after it.
func (p *pacer) sleepUntil(due time.Time) error {
	if d := time.Until(due) - spinMargin; d > 0 {
		spec := itimerspec{value: syscall.NsecToTimespec(d.Nanoseconds())}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		var expirations [8]byte
		if _, err := p.f.Read(expirations[:]); err != nil {
			return err
		}
	}
	for time.Now().Before(due) {
	}
	return nil
}
