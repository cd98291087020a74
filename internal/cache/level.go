package cache

import (
	"cosmos/internal/memsys"
	"cosmos/internal/telemetry"
)

// Level adapts a Cache to the memsys.Level interface, binding it into a
// hierarchy chain: a fixed lookup latency and a downstream level that
// receives this cache's dirty victims. The writeback walk is generic — any
// dirty eviction, whether caused by a demand fill or by an arriving
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

// Down returns the level this cache writes dirty victims to.
func (l *Level) Down() memsys.Level { return l.down }

// Name implements memsys.Level.
func (l *Level) Name() string { return l.cache.Name() }

// Latency implements memsys.Level.
func (l *Level) Latency() uint64 { return l.lat }

// Probe is the devirtualized hot path: identical semantics to Access —
// lookup, fill on miss, dirty-victim cascade — without Request/Response
// struct traffic or interface dispatch at the call site. The simulator's
// step engine calls it on concrete *Level chains; adapters and the fault
// plane keep using Access. Only a dirty victim's line is needed here, so a
// clean eviction skips reading the victim's tag.
func (l *Level) Probe(line uint64, write bool, sig uint16, core int, now uint64) bool {
	hit, _, _, evLine, _, evDirty := l.cache.probe(line, write, sig, false)
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

// Access performs a demand lookup and cascades any dirty victim down the
// chain before returning.
func (l *Level) Access(r memsys.Request) memsys.Response {
	res := l.cache.Access(r.Line, r.Write, r.Sig)
	l.cascade(res, r)
	return memsys.Response{
		Hit:          res.Hit,
		Latency:      l.lat,
		Evicted:      res.Evicted,
		EvictedLine:  res.EvictedLine,
		EvictedDirty: res.EvictedDirty,
	}
}

// Writeback installs a dirty victim from the level above. The install is a
// store (the line is dirty here now); its own victim cascades further down.
func (l *Level) Writeback(r memsys.Request) {
	res := l.cache.Access(r.Line, true, memsys.SigWriteback)
	l.cascade(res, r)
}

// cascade forwards a dirty victim to the downstream level.
func (l *Level) cascade(res Result, r memsys.Request) {
	if res.Evicted && res.EvictedDirty && l.down != nil {
		l.down.Writeback(memsys.Request{
			Line:  res.EvictedLine,
			Write: true,
			Sig:   memsys.SigWriteback,
			Core:  r.Core,
			Now:   r.Now,
		})
	}
}

// RegisterMetrics implements memsys.Level.
func (l *Level) RegisterMetrics(s *telemetry.Scope) { l.cache.RegisterMetrics(s) }

// ResetStats implements memsys.Level.
func (l *Level) ResetStats() { l.cache.Stats = Stats{} }
