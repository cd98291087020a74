//go:build !linux

package main

import "runtime"

// lockThread keeps the calling goroutine on its OS thread; without Linux's
// affinity calls the benchmark leaves placement to the OS.
func lockThread() { runtime.LockOSThread() }

// pinQuietCPU does nothing where affinity cannot be set.
func pinQuietCPU() {}
