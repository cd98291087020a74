package cache

import (
	"cosmos/internal/memsys"
	"cosmos/internal/telemetry"
)

// Level binds a Cache into a hierarchy chain: a fixed lookup latency and a
// downstream memsys.Level link that receives this cache's dirty victims.
// Any dirty eviction, whether caused by a demand fill or by an arriving
// writeback, is forwarded to down.Writeback, which cascades recursively
// until a terminal level absorbs the line.
type Level struct {
	cache *Cache
	lat   uint64
	down  memsys.Level
}

// NewLevel wraps c as a hierarchy level with the given lookup latency.
// down receives dirty victims; it must be non-nil unless the cache can
// never hold dirty lines.
func NewLevel(c *Cache, lat uint64, down memsys.Level) *Level {
	return &Level{cache: c, lat: lat, down: down}
}

// Cache exposes the underlying tag store (stats, policy hints).
func (l *Level) Cache() *Cache { return l.cache }

// Probe is the level's one access path: a lookup that fills on a miss and
// sends a dirty victim down the chain before returning whether the line
// hit. It takes scalars rather than a Request and is called on concrete
// *Level values, so the simulator's step walk has no struct traffic or
// interface dispatch. Only a dirty victim's line is needed here, so a
// clean eviction skips reading the victim's tag.
func (l *Level) Probe(line uint64, write bool, sig uint16, core int, now uint64) bool {
	hit, _, _, evLine, _, evDirty := l.cache.probe(line, write, sig)
	if evDirty && l.down != nil {
		l.down.Writeback(memsys.Request{
			Line:  evLine,
			Write: true,
			Sig:   memsys.SigWriteback,
			Core:  core,
			Now:   now,
		})
	}
	return hit
}

// Writeback implements memsys.Level: it installs a dirty victim from the
// level above as a store (the line is dirty here now), and its own victim
// cascades further down.
func (l *Level) Writeback(r memsys.Request) {
	l.Probe(r.Line, true, memsys.SigWriteback, r.Core, r.Now)
}

// RegisterMetrics registers the cache's counters under the scope.
func (l *Level) RegisterMetrics(s *telemetry.Scope) { l.cache.RegisterMetrics(s) }

// ResetStats zeroes the cache's measurements, keeping its contents.
func (l *Level) ResetStats() { l.cache.Stats = Stats{} }
