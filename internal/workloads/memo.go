package workloads

import "sync"

// memo is a process-wide single-flight cache of immutable tables. The
// first caller for a key builds the value; concurrent callers for the same
// key wait for that build, and every later caller shares it. Entries are
// never evicted, and callers must only read the values they get.
type memo[K comparable, V any] struct {
	m sync.Map // K -> *memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the value for k, running build once per key per process.
func (c *memo[K, V]) get(k K, build func() V) V {
	v, _ := c.m.LoadOrStore(k, new(memoEntry[V]))
	e := v.(*memoEntry[V])
	e.once.Do(func() { e.v = build() })
	return e.v
}
