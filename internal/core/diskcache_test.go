package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"purec/internal/comp"
	"purec/internal/rt"
)

const diskCacheSrc = `
int acc[16];

int main(void) {
    for (int i = 0; i < 16; i++)
        acc[i] = i * 3 + 1;
    int s = 0;
    for (int i = 0; i < 16; i++)
        s += acc[i];
    printf("s=%d\n", s);
    return s % 97;
}
`

func newDiskTest(t *testing.T, maxEntries int) (*DiskCache, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := NewDiskCache(dir, maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

// runViaCache builds through the cache and executes, returning the
// build source and stdout.
func runViaCache(t *testing.T, c *ProgramCache, src string, cfg Config) (BuildSource, string) {
	t.Helper()
	prog, _, bs, err := c.BuildDetail(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	proc, err := prog.NewProcess(comp.ProcOptions{Team: rt.NewTeam(1), Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.RunMain(); err != nil {
		t.Fatal(err)
	}
	return bs, out.String()
}

// TestDiskCacheRestartSkipsFrontEnd is the daemon-restart contract: a
// second ProgramCache (a "restarted daemon") sharing the first one's
// disk directory must serve the program from disk — provably without
// re-entering the pipeline front end — and the restored Program's
// output must match the originally compiled one byte for byte.
func TestDiskCacheRestartSkipsFrontEnd(t *testing.T) {
	d, _ := newDiskTest(t, 0)
	cfg := Config{FileName: "t.c"}

	first := NewProgramCache(8).WithDisk(d)
	bs, out1 := runViaCache(t, first, diskCacheSrc, cfg)
	if bs != SourceCompiled {
		t.Fatalf("first build source = %v, want compiled", bs)
	}
	if st := d.Stats(); st.Stores != 1 {
		t.Fatalf("disk stats after first build = %+v, want 1 store", st)
	}

	// "Restart": a fresh in-memory cache over the same directory.
	restarted := NewProgramCache(8).WithDisk(d)
	frontBefore := FrontRuns()
	bs, out2 := runViaCache(t, restarted, diskCacheSrc, cfg)
	if bs != SourceDisk {
		t.Fatalf("post-restart build source = %v, want disk", bs)
	}
	if delta := FrontRuns() - frontBefore; delta != 0 {
		t.Fatalf("front end ran %d times serving a disk hit, want 0", delta)
	}
	if out1 != out2 {
		t.Fatalf("restored program output %q differs from compiled %q", out2, out1)
	}
	if st := d.Stats(); st.Hits != 1 {
		t.Fatalf("disk stats after restart = %+v, want 1 hit", st)
	}
}

// rejections lists the three rejection counters by name, the form the
// tests below assert them in.
func rejections(st DiskStats) map[string]uint64 {
	return map[string]uint64{"corrupt": st.Corrupt, "stale": st.Stale, "revalidation": st.Revalidation}
}

// corruptAndRebuild stores one entry, mangles it with mangle, and
// asserts the damage is detected, the entry rejected under exactly the
// named reason and deleted, and the next build falls back to the full
// pipeline (the mangled payload is never turned into an executable
// Program).
func corruptAndRebuild(t *testing.T, reason string, mangle func(t *testing.T, path string)) {
	t.Helper()
	d, dir := newDiskTest(t, 0)
	cfg := Config{FileName: "t.c"}
	key := Key(diskCacheSrc, cfg)

	first := NewProgramCache(8).WithDisk(d)
	if bs, _ := runViaCache(t, first, diskCacheSrc, cfg); bs != SourceCompiled {
		t.Fatalf("seed build source = %v", bs)
	}
	path := filepath.Join(dir, key.String()+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file missing after store: %v", err)
	}
	mangle(t, path)
	missesBefore := d.Stats().Misses

	// The mangled entry must fail Load outright...
	if _, ok := d.Load(diskCacheSrc, key, cfg); ok {
		t.Fatal("Load accepted a mangled entry")
	}
	want := map[string]uint64{"corrupt": 0, "stale": 0, "revalidation": 0}
	want[reason] = 1
	if st := d.Stats(); fmt.Sprint(rejections(st)) != fmt.Sprint(want) || st.Misses != missesBefore+1 {
		t.Fatalf("rejection counted as %v and %d misses, want %v and 1 miss", rejections(st), st.Misses-missesBefore, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("rejected entry not deleted (stat err %v)", err)
	}

	// ...and a restarted daemon must rebuild from source, not execute
	// the mangled payload: the front end provably runs again.
	restarted := NewProgramCache(8).WithDisk(d)
	frontBefore := FrontRuns()
	bs, out := runViaCache(t, restarted, diskCacheSrc, cfg)
	if bs != SourceCompiled {
		t.Fatalf("post-rejection build source = %v, want compiled", bs)
	}
	if delta := FrontRuns() - frontBefore; delta == 0 {
		t.Fatal("front end did not run for the rebuild")
	}
	if out != "s=376\n" {
		t.Fatalf("rebuilt program output = %q", out)
	}
}

// editEntry rewrites an entry file through edit, which sees the raw
// bytes of the header line and of the source text after it.
func editEntry(t *testing.T, path string, edit func(header, text []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, text, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		t.Fatalf("entry %s has no header line", path)
	}
	if err := os.WriteFile(path, edit(header, text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheTruncatedEntryRejected: an entry file cut short (torn
// write simulation), inside the source text or inside the header, is
// detected, rejected and rebuilt.
func TestDiskCacheTruncatedEntryRejected(t *testing.T) {
	t.Run("text", func(t *testing.T) {
		corruptAndRebuild(t, "corrupt", func(t *testing.T, path string) {
			editEntry(t, path, func(header, text []byte) []byte {
				return append(append(header, '\n'), text[:len(text)/2]...)
			})
		})
	})
	t.Run("header", func(t *testing.T) {
		corruptAndRebuild(t, "corrupt", func(t *testing.T, path string) {
			editEntry(t, path, func(header, text []byte) []byte { return header[:len(header)/2] })
		})
	})
}

// TestDiskCacheBitFlipRejected: a single flipped bit inside the stored
// source fails the integrity checksum.
func TestDiskCacheBitFlipRejected(t *testing.T) {
	corruptAndRebuild(t, "corrupt", func(t *testing.T, path string) {
		editEntry(t, path, func(header, text []byte) []byte {
			i := bytes.Index(text, []byte("acc"))
			if i < 0 {
				t.Fatal("payload marker not found")
			}
			text[i] ^= 0x01
			return append(append(header, '\n'), text...)
		})
	})
}

// TestDiskCacheVersionSkewRejected: an entry whose header names another
// layout version is rejected as stale and rebuilt, not restored — even
// though everything else about it is intact.
func TestDiskCacheVersionSkewRejected(t *testing.T) {
	corruptAndRebuild(t, "stale", func(t *testing.T, path string) {
		editEntry(t, path, func(header, text []byte) []byte {
			old := []byte(fmt.Sprintf(`"version":%d,`, diskEntryVersion))
			if !bytes.Contains(header, old) {
				t.Fatalf("header %s has no version field to edit", header)
			}
			header = bytes.Replace(header, old, []byte(fmt.Sprintf(`"version":%d,`, diskEntryVersion+1)), 1)
			return append(append(header, '\n'), text...)
		})
	})
}

// TestDiskCacheEvictionSkipsInflightLoad: capacity eviction must never
// delete an entry another goroutine is currently loading.
func TestDiskCacheEvictionSkipsInflightLoad(t *testing.T) {
	d, dir := newDiskTest(t, 2)
	cfg := Config{FileName: "t.c"}
	cache := NewProgramCache(16).WithDisk(d)

	srcFor := func(i int) string {
		return fmt.Sprintf("int main(void) { printf(\"v%d\\n\"); return %d; }", i, i)
	}
	if _, _, _, err := cache.BuildDetail(srcFor(0), cfg); err != nil {
		t.Fatal(err)
	}
	key0 := Key(srcFor(0), cfg)
	path0 := filepath.Join(dir, key0.String()+".json")

	// Pin key0 as in-flight, then store enough entries to squeeze the
	// 2-entry capacity hard.
	d.beginLoad(key0)
	for i := 1; i <= 4; i++ {
		if _, _, _, err := cache.BuildDetail(srcFor(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path0); err != nil {
		t.Fatalf("eviction removed the in-flight entry: %v", err)
	}
	if st := d.Stats(); st.Evicted == 0 {
		t.Fatalf("capacity squeeze evicted nothing: %+v", st)
	}
	d.endLoad(key0)

	// Released, the key becomes evictable again on the next store.
	if _, _, _, err := cache.BuildDetail(srcFor(5), cfg); err != nil {
		t.Fatal(err)
	}
	if n := d.Len(); n > 3 {
		t.Fatalf("directory holds %d entries, want <= capacity+1", n)
	}
}

// TestDiskCacheConcurrentDaemonsShareDir: many DiskCache instances
// (daemons) storing and loading the same key in one directory must
// never produce a torn or unreadable entry — every Load that finds the
// file must restore a valid artifact.
func TestDiskCacheConcurrentDaemonsShareDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{FileName: "t.c"}
	key := Key(diskCacheSrc, cfg)

	art, err := Front(diskCacheSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const daemons = 4
	const iters = 25
	caches := make([]*DiskCache, daemons)
	for i := range caches {
		if caches[i], err = NewDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, daemons)
	for i := 0; i < daemons; i++ {
		wg.Add(1)
		go func(d *DiskCache, i int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if err := d.Store(key, cfg, art); err != nil {
					errs <- fmt.Errorf("daemon %d store: %v", i, err)
					return
				}
				got, ok := d.Load(diskCacheSrc, key, cfg)
				if !ok {
					errs <- fmt.Errorf("daemon %d: load rejected a freshly stored entry", i)
					return
				}
				if got.Stages.Transformed != art.Stages.Transformed {
					errs <- fmt.Errorf("daemon %d: restored payload differs", i)
					return
				}
			}
		}(caches[i], i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, d := range caches {
		if st := d.Stats(); st.Corrupt != 0 {
			t.Errorf("daemon %d saw %d corrupt entries under concurrent stores", i, st.Corrupt)
		}
	}
	// No temp files may survive the races.
	tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if len(tmps) != 0 {
		t.Errorf("leftover temp files: %v", tmps)
	}
}
