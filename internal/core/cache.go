package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"purec/internal/comp"
)

// CacheKey identifies a compiled Program by content: the source text
// plus every compile-relevant Config field. Run state (TeamSize,
// Stdout, cache controls) is excluded, so builds that differ only in
// how they will be run share one Program.
type CacheKey [sha256.Size]byte

// String returns the hex form of the key — the on-disk entry name and
// the program identity the daemon reports.
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// ParseCacheKey parses the hex form back into a key.
func ParseCacheKey(s string) (CacheKey, error) {
	var key CacheKey
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(key) {
		return key, fmt.Errorf("bad cache key %q", s)
	}
	copy(key[:], b)
	return key, nil
}

// Key computes the content address of a (source, Config) build — the
// identity under which the caches store it and the daemon quotas it.
func Key(src string, cfg Config) CacheKey {
	if cfg.FileName == "" {
		cfg.FileName = "program.c"
	}
	return cacheKey(src, cfg)
}

// cacheKey computes the content address of a build.
func cacheKey(src string, cfg Config) CacheKey {
	h := sha256.New()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("src:%d:%s;", len(src), src)
	// The engine, nofuse, nobce, combine, sparsepriv and memoshards
	// literals stand where six since-deleted or ignored fields were
	// hashed at their zero values: every default key stays
	// byte-identical to the one an older build wrote, so existing disk
	// caches keep serving.
	w("mode:%d;file:%s;par:%t;backend:%d;engine:0;vec:%t;nofuse:false;nobce:false;noalias:%t;combine:0;sparsepriv:false;",
		cfg.Mode, cfg.FileName, cfg.Parallelize, cfg.Backend, cfg.Vectorize, cfg.NoAlias)
	w("memo:%t;memocap:%d;memoshards:0;", cfg.Memoize, cfg.MemoCapacity)
	t := cfg.Transform
	w("tile:%t;sizes:%v;skew:%t;sched:%s;mintrip:%d;",
		t.Tile, t.TileSizes, t.Skew, t.Schedule, t.MinParallelTrip)
	writeMap := func(tag string, m map[string]string) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w("%s:%d;", tag, len(keys))
		for _, k := range keys {
			w("%d:%s=%d:%s;", len(k), k, len(m[k]), m[k])
		}
	}
	writeMap("def", cfg.Defines)
	writeMap("files", cfg.Files)
	var key CacheKey
	h.Sum(key[:0])
	return key
}

// BuildSource reports where a build came from.
type BuildSource int

// Build sources, cheapest-first.
const (
	// SourceMemory: the in-memory cache already held the Program
	// (including joining an in-flight singleflight build of it).
	SourceMemory BuildSource = iota
	// SourceDisk: the Program was restored from the persistent disk
	// cache — the pipeline front end did not run.
	SourceDisk
	// SourceCompiled: the full pipeline ran.
	SourceCompiled
)

var buildSourceNames = [...]string{"memory", "disk", "compiled"}

// String returns the source name ("memory", "disk", "compiled").
func (s BuildSource) String() string { return buildSourceNames[s] }

// cacheEntry is one in-flight or finished build. The sync.Once gives
// the cache singleflight behaviour: concurrent builders of the same key
// run the pipeline once and share the result.
type cacheEntry struct {
	once sync.Once
	prog *comp.Program
	art  *Artifact
	err  error
	// src records how the singleflight body obtained the Program
	// (SourceDisk or SourceCompiled); callers that joined the entry
	// after its insertion report SourceMemory instead.
	src BuildSource
	// done is set after the singleflight build finishes; eviction skips
	// entries that are still building so a capacity squeeze can never
	// drop an in-flight pipeline run.
	done atomic.Bool
}

// ProgramCache is a content-addressed, re-entrant cache of compiled
// Programs keyed by (source, Config) hash. Because Programs are
// immutable and all run state lives in Processes, serving the same
// Program to many concurrent builds is safe. Eviction is LRU: every hit
// promotes its key, and once the capacity is exceeded the
// least-recently-used finished entry is dropped (in-flight builds are
// never evicted).
type ProgramCache struct {
	mu      sync.Mutex
	max     int
	entries map[CacheKey]*cacheEntry
	order   []CacheKey
	hits    uint64
	misses  uint64
	// disk is the optional persistent layer (WithDisk): in-memory misses
	// consult it before running the pipeline, and finished builds are
	// written through to it.
	disk *DiskCache
}

// DefaultCache is the cache Build and BuildProgram use when Config.Cache
// is nil.
var DefaultCache = NewProgramCache(128)

// NewProgramCache creates a cache holding at most max programs (max < 1
// means 1).
func NewProgramCache(max int) *ProgramCache {
	if max < 1 {
		max = 1
	}
	return &ProgramCache{max: max, entries: map[CacheKey]*cacheEntry{}}
}

// WithDisk layers a persistent disk cache under the in-memory cache:
// misses consult it before running the pipeline front end, and finished
// builds are written through. Returns c for chaining.
func (c *ProgramCache) WithDisk(d *DiskCache) *ProgramCache {
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
	return c
}

// Disk returns the layered disk cache (nil without one).
func (c *ProgramCache) Disk() *DiskCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// build returns the cached program for (src, cfg), running the pipeline
// at most once per key.
func (c *ProgramCache) build(src string, cfg Config) (*comp.Program, *Artifact, bool, error) {
	prog, art, source, err := c.BuildDetail(src, cfg)
	return prog, art, source == SourceMemory, err
}

// BuildDetail is build with the cache layer that served the request
// made explicit: SourceMemory (in-memory hit, including joining an
// in-flight build), SourceDisk (restored from the persistent cache,
// front end skipped) or SourceCompiled (full pipeline).
func (c *ProgramCache) BuildDetail(src string, cfg Config) (*comp.Program, *Artifact, BuildSource, error) {
	return c.BuildKeyed(Key(src, cfg), src, cfg)
}

// BuildKeyed is BuildDetail for a caller that already holds the build's
// key, so a request hashes its source once. key must be Key(src, cfg):
// the cache trusts it, and a wrong key serves another build's Program.
func (c *ProgramCache) BuildKeyed(key CacheKey, src string, cfg Config) (*comp.Program, *Artifact, BuildSource, error) {
	if err := cfg.check(); err != nil {
		return nil, nil, SourceCompiled, err
	}
	if cfg.FileName == "" {
		cfg.FileName = "program.c"
	}
	c.mu.Lock()
	disk := c.disk
	e, hit := c.entries[key]
	if hit {
		c.hits++
		c.promote(key)
	} else {
		c.misses++
		e = &cacheEntry{}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.evictOver()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer e.done.Store(true)
		// A panicking once.Do still counts as done: without this the
		// entry would keep neither a Program nor an error, and every
		// later request for the key would get (nil, nil). The error
		// carries the stack, so the failure can be diagnosed.
		defer func() {
			if r := recover(); r != nil {
				e.prog, e.err = nil, fmt.Errorf("internal error: %v\n%s", r, debug.Stack())
			}
		}()
		if disk != nil {
			if art, ok := disk.Load(src, key, cfg); ok {
				if prog, err := art.Compile(cfg); err == nil {
					e.art, e.prog, e.src = art, prog, SourceDisk
					return
				}
				// The entry revalidated but did not compile (a toolchain
				// whose Compile rejects what this one stored): fall back
				// to the full build, which overwrites the entry.
			}
		}
		e.src = SourceCompiled
		e.art, e.err = Front(src, cfg)
		if e.err == nil {
			e.prog, e.err = e.art.Compile(cfg)
		}
		if e.err == nil && disk != nil {
			// Write-through is best-effort: a full disk never blocks
			// serving the build.
			_ = disk.Store(key, cfg, e.art)
		}
	})
	if e.err != nil {
		// Failed builds are not worth a cache slot: drop the entry so
		// it neither evicts valid Programs nor reports as a hit.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
			for i, k := range c.order {
				if k == key {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
		}
		c.mu.Unlock()
		return nil, nil, SourceCompiled, e.err
	}
	if hit {
		return e.prog, e.art, SourceMemory, nil
	}
	return e.prog, e.art, e.src, nil
}

// promote moves key to the most-recently-used end of the order (caller
// holds c.mu).
func (c *ProgramCache) promote(key CacheKey) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i], c.order[i+1:]...), key)
			return
		}
	}
}

// evictOver drops least-recently-used finished entries until the cache
// fits its capacity (caller holds c.mu). Entries whose singleflight
// build is still running are skipped — evicting them would detach a
// build other goroutines are waiting on and let a concurrent insert of
// the same key rerun the pipeline; if only in-flight entries remain the
// cache temporarily exceeds its capacity instead.
func (c *ProgramCache) evictOver() {
	for len(c.order) > c.max {
		evicted := false
		for i, k := range c.order {
			if e := c.entries[k]; e != nil && e.done.Load() {
				delete(c.entries, k)
				c.order = append(c.order[:i], c.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Stats returns the hit/miss counters.
func (c *ProgramCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached programs.
func (c *ProgramCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops all entries and counters.
func (c *ProgramCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[CacheKey]*cacheEntry{}
	c.order = nil
	c.hits, c.misses = 0, 0
}
