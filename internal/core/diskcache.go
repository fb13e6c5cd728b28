package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"purec/internal/parser"
	"purec/internal/sema"
)

// The persistent program cache stores validated build products on disk,
// keyed by the same content hash as the in-memory ProgramCache.
//
// What an entry holds. One file per key: a single line of compact JSON
// (the header, diskEntry) followed by the raw text of the lowered,
// polyhedrally transformed source (Stages.Transformed), unescaped. The
// header carries the front end's verdicts (pure set, SCoP count,
// rejections), the memoizable set the storing build derived from the
// final model, and a SHA-256 over every one of those fields plus the
// text. Stages.Final, like Stripped/Expanded/Marked and the transform
// Report, is not persisted: no consumer of a restored artifact reads
// it.
//
// What Load runs. Restoring an entry re-enters neither the pipeline
// front end (preprocess, parse, purity, value-range analysis, SCoP
// detection, polyhedral transform) nor the purity analysis of the
// final model: it parses and semantically checks the stored text —
// Compile needs the tree and its model. The text already decides what
// runs and where it runs in parallel (its #pragma lines are executed as
// written, not re-derived), and every guest check stays in the compiled
// program, so the header holds nothing that can remove one. The tape
// compile then runs again: a compiled Program is data (tapes, pools,
// launch records, kernels, reduction clauses; no func value), but
// nothing encodes or verifies one yet, and it still points into the
// tree and model it was compiled from (ROADMAP item 10(b)).
//
// Entries that fail any of this (truncated files, bit flips, another
// format version, a payload that no longer revalidates) are rejected,
// deleted and rebuilt from source — never executed.
//
// Writes are torn-write-safe for concurrent daemons sharing one cache
// directory: each entry is written to an O_EXCL temp file and
// atomically renamed into place, so a reader sees either the old
// complete entry, the new complete entry, or nothing.

// diskEntryVersion is bumped whenever the entry layout or the restore
// contract changes; entries of other versions are rejected as stale.
// Version 1 was one indented JSON document holding Transformed and
// Final as escaped strings; its whole file decodes as a header, which
// is how Load recognises it. Version 2 also stored the bounds proofs of
// the storing build as node ordinals of the text.
const diskEntryVersion = 3

// diskEntry is the header line of one on-disk cache entry; the
// transformed source follows it after a newline.
type diskEntry struct {
	Version    int      `json:"version"`
	Key        string   `json:"key"`
	FileName   string   `json:"file_name"`
	Pure       []string `json:"pure,omitempty"`
	Memoizable []string `json:"memoizable,omitempty"`
	SCoPs      int      `json:"scops"`
	Rejections []string `json:"rejections,omitempty"`
	// Sum is the hex SHA-256 of the canonical payload; Load rejects
	// entries whose recomputed sum differs (bit flip, truncation, hand
	// edits).
	Sum string `json:"sum"`
}

// sum computes the canonical integrity checksum over every header field
// Load acts on and the source text that follows the header.
func (e *diskEntry) sum(text []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d;key:%s;file:%d:%s;", e.Version, e.Key, len(e.FileName), e.FileName)
	fmt.Fprintf(h, "pure:%d:%s;memo:%d:%s;scops:%d;rej:%d:%s;",
		len(e.Pure), strings.Join(e.Pure, ","), len(e.Memoizable), strings.Join(e.Memoizable, ","),
		e.SCoPs, len(e.Rejections), strings.Join(e.Rejections, "\x00"))
	fmt.Fprintf(h, "text:%d:", len(text))
	h.Write(text)
	return hex.EncodeToString(h.Sum(nil))
}

// DiskStats counts the disk cache's traffic. A rejected entry is
// deleted, counted as a miss and under exactly one of three reasons,
// and the build falls back to the full pipeline: Corrupt (undecodable,
// wrong key or checksum mismatch — a torn write or a bit flip), Stale
// (written under another diskEntryVersion — a toolchain roll-over) or
// Revalidation (checksummed clean, but the text or the memoizable set
// no longer revalidates against this toolchain).
type DiskStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Stores       uint64 `json:"stores"`
	Corrupt      uint64 `json:"corrupt"`
	Stale        uint64 `json:"stale"`
	Revalidation uint64 `json:"revalidation"`
	Evicted      uint64 `json:"evicted"`
}

// DiskCache is the persistent, shareable half of the program cache: a
// directory of checksummed build products keyed by content hash.
// Multiple daemons may point at one directory; entries are written
// atomically and validated on every load, so a reader can never observe
// (or execute) a torn or corrupted artifact.
type DiskCache struct {
	dir string
	max int

	mu sync.Mutex
	// inflight guards keys a loader is currently reading: capacity
	// eviction skips them, so an eviction racing a load can never pull
	// the file out from under the reader.
	inflight map[CacheKey]int
	stats    DiskStats
}

// NewDiskCache opens (creating if needed) the cache directory, keeping
// at most maxEntries finished entries (0 or less means unlimited).
func NewDiskCache(dir string, maxEntries int) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk cache: %v", err)
	}
	return &DiskCache{dir: dir, max: maxEntries, inflight: map[CacheKey]int{}}, nil
}

// Dir returns the cache directory.
func (d *DiskCache) Dir() string { return d.dir }

// Stats snapshots the traffic counters.
func (d *DiskCache) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Len returns the number of entry files currently in the directory.
func (d *DiskCache) Len() int {
	names, _ := filepath.Glob(filepath.Join(d.dir, "*.json"))
	return len(names)
}

// path returns the entry file of a key.
func (d *DiskCache) path(key CacheKey) string {
	return filepath.Join(d.dir, key.String()+".json")
}

func (d *DiskCache) beginLoad(key CacheKey) {
	d.mu.Lock()
	d.inflight[key]++
	d.mu.Unlock()
}

func (d *DiskCache) endLoad(key CacheKey) {
	d.mu.Lock()
	if d.inflight[key]--; d.inflight[key] <= 0 {
		delete(d.inflight, key)
	}
	d.mu.Unlock()
}

func (d *DiskCache) count(field *uint64) {
	d.mu.Lock()
	*field++
	d.mu.Unlock()
}

// Load restores the Artifact of a previously stored build. It returns
// ok=false on a plain miss and on any rejection; rejected entries are
// deleted so the rebuilt artifact can replace them. The returned
// Artifact carries src as Stages.Original and the stored text as
// Stages.Transformed; the other snapshots (Stripped/Expanded/Marked/
// Final) and the transform Report are not persisted — the daemon's
// execution path needs none of them.
func (d *DiskCache) Load(src string, key CacheKey, cfg Config) (*Artifact, bool) {
	d.beginLoad(key)
	defer d.endLoad(key)
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		d.count(&d.stats.Misses)
		return nil, false
	}
	// The header is the first JSON value of the file, whatever follows:
	// entries of every version so far begin with an object that names
	// its version, so a foreign one is told apart from garbage.
	e := &diskEntry{}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(e); err != nil {
		d.reject(key, &d.stats.Corrupt)
		return nil, false
	}
	if e.Version != diskEntryVersion {
		d.reject(key, &d.stats.Stale)
		return nil, false
	}
	text, ok := bytes.CutPrefix(data[dec.InputOffset():], []byte{'\n'})
	if !ok || e.Key != key.String() || e.Sum != e.sum(text) {
		d.reject(key, &d.stats.Corrupt)
		return nil, false
	}
	art, err := restoreArtifact(src, e, string(text))
	if err != nil {
		// The payload checksummed clean but no longer revalidates (an
		// entry written by a different toolchain state, or edited and
		// re-summed). Reject, delete, rebuild.
		d.reject(key, &d.stats.Revalidation)
		return nil, false
	}
	d.count(&d.stats.Hits)
	return art, true
}

// reject deletes a failed entry and counts it under reason (one of the
// three rejection counters of d.stats) plus a miss, so hit-rate
// arithmetic stays honest.
func (d *DiskCache) reject(key CacheKey, reason *uint64) {
	os.Remove(d.path(key))
	d.mu.Lock()
	*reason++
	d.stats.Misses++
	d.mu.Unlock()
}

// Store persists a finished build product. The write is atomic
// (O_EXCL temp file + rename); concurrent daemons storing the same key
// race benignly — last rename wins, every intermediate state is a
// complete entry.
func (d *DiskCache) Store(key CacheKey, cfg Config, art *Artifact) error {
	name := cfg.FileName
	if name == "" {
		name = "program.c"
	}
	e := &diskEntry{
		Version:    diskEntryVersion,
		Key:        key.String(),
		FileName:   name,
		Pure:       append([]string(nil), art.Pure...),
		Memoizable: append([]string(nil), art.Memoizable...),
		SCoPs:      art.SCoPs,
		Rejections: append([]string(nil), art.Rejections...),
	}
	sort.Strings(e.Pure)
	sort.Strings(e.Memoizable)
	text := []byte(art.Stages.Transformed)
	e.Sum = e.sum(text)
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(append(data, '\n'), text...)
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d.count(&d.stats.Stores)
	d.evictOver()
	return nil
}

// evictOver drops the oldest finished entries until the directory fits
// the capacity. Keys with a load in flight are skipped — the reader
// holds no file lock, so deleting under it could turn a valid hit into
// a spurious miss; if only in-flight entries remain the cache
// temporarily exceeds its capacity instead.
func (d *DiskCache) evictOver() {
	if d.max <= 0 {
		return
	}
	names, err := filepath.Glob(filepath.Join(d.dir, "*.json"))
	if err != nil || len(names) <= d.max {
		return
	}
	type entry struct {
		path string
		mod  int64
	}
	var entries []entry
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			continue
		}
		entries = append(entries, entry{n, fi.ModTime().UnixNano()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mod < entries[j].mod })
	over := len(entries) - d.max
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if over <= 0 {
			return
		}
		base := strings.TrimSuffix(filepath.Base(e.path), ".json")
		if key, err := ParseCacheKey(base); err == nil && d.inflight[key] > 0 {
			continue
		}
		if os.Remove(e.path) == nil {
			d.stats.Evicted++
			over--
		}
	}
}

// restoreArtifact turns a checksummed disk entry back into an executable
// Artifact. The stored text is already lowered and transformed, so the
// chain's restart on its own generated file shrinks to what Compile
// cannot do without: parse and semantic check of the text (the tree and
// its model). purity.Memoizable does not run — the storing build held
// the result, and the entry carries it under its checksum. Artifact.VRA
// of a restored artifact is nil: Compile does not read it, and the
// user-source findings of -analyze are a front-end concern that was
// never restored.
func restoreArtifact(src string, e *diskEntry, text string) (*Artifact, error) {
	art := &Artifact{
		Pure:       e.Pure,
		Memoizable: e.Memoizable,
		SCoPs:      e.SCoPs,
		Rejections: e.Rejections,
	}
	art.Stages.Original = src
	art.Stages.Transformed = text
	file, err := parser.Parse(e.FileName, text)
	if err != nil {
		return nil, fmt.Errorf("stored source does not reparse: %v", err)
	}
	info, err := sema.Check(file)
	if err != nil {
		return nil, fmt.Errorf("stored source does not re-check: %v", err)
	}
	art.Info = info
	for _, name := range e.Memoizable {
		if sig := info.Funcs[name]; sig == nil || !sig.Pure || sig.Builtin {
			return nil, fmt.Errorf("stored memoizable set names %s, no pure function of the stored source", name)
		}
	}
	return art, nil
}
