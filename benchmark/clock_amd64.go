package main

// ticks reads the time-stamp counter with a bare RDTSC. Unlike the vDSO
// clock behind time.Now, it does not fence, so reading it does not wait for
// the loads in flight and a span costs the simulator little of its memory
// overlap.
func ticks() int64
