package main

import "time"

// A shared host's vCPUs are slowed, each on its own and for tens of
// milliseconds to minutes at a time, when another tenant runs on the
// sibling hyperthread: the simulator then runs up to 1.8x slower, and a
// 30-second run can fall entirely into a slow stretch. So simulation time
// is measured in reference seconds: every slice of the run is timed
// between two runs of a fixed reference loop on the same thread, and its
// host time is scaled by how much slower than referenceLoopS the loop ran
// around it. The loop slows with the host, not with the simulator, so a
// faster simulator still reads as faster.

// referenceLoopS is the reference loop's time on a quiet core of the
// 2-vCPU Xeon host the README's numbers come from. It only sets the scale
// of reference seconds: runs compare on any host.
const referenceLoopS = 250e-6

// refLoop times one run of an integer loop with eight independent chains
// and table lookups, about a quarter millisecond on a quiet core: the kind
// of code a busy sibling hyperthread slows most.
func refLoop() float64 {
	var table [1 << 12]uint64
	t0 := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for range 100_000 {
		a = a*6364136223846793005 + 1
		b ^= b << 7
		c += table[a>>52]
		d ^= c >> 3
		e = e*3 + d
		f += table[(e>>20)%uint64(len(table))]
		g ^= f + b
		h += g & a
		table[h%uint64(len(table))]++
	}
	refSink += a + b + c + d + e + f + g + h
	return time.Since(t0).Seconds()
}

// refSink keeps the loop's result alive, so the compiler keeps the loop.
var refSink uint64

// refClock books a run's time slice by slice, in host and in reference
// seconds. The reference loop runs between slices, outside the booked time,
// on the thread that runs the timed code.
type refClock struct {
	last time.Time
	loop float64 // the reference loop's time at the start of the slice
	// Wall and Ref are the booked host and reference seconds; Laps counts
	// the slices.
	Wall, Ref float64
	Laps      int
}

// start begins the first slice.
func (c *refClock) start() {
	c.loop = refLoop()
	c.last = time.Now()
}

// lap ends the current slice and begins the next.
func (c *refClock) lap() {
	d := time.Since(c.last).Seconds()
	loop := refLoop()
	c.Wall += d
	c.Ref += d * referenceLoopS / ((c.loop + loop) / 2)
	c.Laps++
	c.loop = loop
	c.last = time.Now()
}

// add books another clock's slices onto c.
func (c *refClock) add(o refClock) {
	c.Wall += o.Wall
	c.Ref += o.Ref
	c.Laps += o.Laps
}
