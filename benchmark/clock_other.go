//go:build !amd64

package main

import "time"

var tickBase = time.Now()

// ticks is the monotonic clock in nanoseconds where no cheaper counter is
// available.
func ticks() int64 { return int64(time.Since(tickBase)) }
