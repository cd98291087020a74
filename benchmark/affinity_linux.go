package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// A shared host's vCPUs are slowed, each on its own, when another tenant
// runs on the sibling hyperthread (see refclock.go). So a repetition runs
// the simulator on whichever vCPU is quicker just before each cell, and
// every other thread of the process, the garbage collector and stream
// producers among them, off it. The child process calls lockThread once,
// before its first pass.

// cpuSet is an affinity mask as sched_setaffinity takes it, for up to 1024
// CPUs.
type cpuSet [1024 / 64]uint64

// allowedCPUs are the CPUs the process may run on, read before any thread
// is pinned.
var allowedCPUs []int

// lockThread keeps the calling goroutine on its OS thread for the rest of
// the process, so pinning that thread pins the simulator.
func lockThread() {
	runtime.LockOSThread()
	var set cpuSet
	if setAffinity(0, &set, syscall.SYS_SCHED_GETAFFINITY) != nil {
		return
	}
	for c := 0; c < len(set)*64; c++ {
		if set[c/64]&(1<<(c%64)) != 0 {
			allowedCPUs = append(allowedCPUs, c)
		}
	}
}

// pinQuietCPU moves the calling thread, which lockThread locked, to the
// allowed CPU on which the reference loop runs fastest, and every other
// thread of the process to the remaining CPUs. It does nothing with fewer
// than two CPUs, and gives up quietly if the kernel refuses.
func pinQuietCPU() {
	if len(allowedCPUs) < 2 {
		return
	}
	best, bestS := -1, 0.0
	for _, c := range allowedCPUs {
		if pin(0, c) != nil {
			return
		}
		if s := refLoop(); best < 0 || s < bestS {
			best, bestS = c, s
		}
	}
	if pin(0, best) != nil {
		return
	}
	var rest cpuSet
	for _, c := range allowedCPUs {
		if c != best {
			rest[c/64] |= 1 << (c % 64)
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	self := syscall.Gettid()
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil && tid != self {
			// A thread that exited meanwhile cannot be moved; nothing to do.
			_ = setAffinity(tid, &rest, syscall.SYS_SCHED_SETAFFINITY)
		}
	}
}

func pin(tid, cpu int) error {
	var set cpuSet
	set[cpu/64] |= 1 << (cpu % 64)
	return setAffinity(tid, &set, syscall.SYS_SCHED_SETAFFINITY)
}

// setAffinity reads or writes thread tid's affinity mask (0 is the calling
// thread) through the given system call.
func setAffinity(tid int, set *cpuSet, trap uintptr) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}
