package fabriccache

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

// v1File is a (16,4) round-robin fabric at alpha 0.5 in the format's version
// 1, which also carried ToR 0's compiled table.
const v1File = "testdata/v1-round-robin-16x4.ucmpfab"

func testFabric(t testing.TB, kind string, n, d int) *topo.Fabric {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = n, d
	f, err := topo.NewFabric(cfg, kind, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func compile(t testing.TB, f *topo.Fabric, p Params) *core.PathSet {
	ps := core.BuildPathSetWith(f, p.Alpha, p.MaxParallel)
	if !ps.Symmetric() {
		t.Fatalf("build not symmetric")
	}
	return ps
}

// walkViews reads every group of ps through its views — every entry, path
// and hop of every (t_start, src, dst) — and digests what it read, so a
// store that still aliased released memory would fault here.
func walkViews(ps *core.PathSet) uint64 {
	n, s := ps.F.Sched.N, ps.F.Sched.S
	var b []byte
	var path core.Path
	for ts := 0; ts < s; ts++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				g := ps.View(ts, src, dst)
				for i := 0; i < g.NumEntries(); i++ {
					e := g.Entry(i)
					b = binary.LittleEndian.AppendUint64(b, uint64(e.LatencySlices))
					for j := 0; j < e.NumPaths; j++ {
						e.Path(j).Fill(&path)
						for _, h := range path.Hops {
							b = binary.LittleEndian.AppendUint64(b, uint64(h.To))
							b = binary.LittleEndian.AppendUint64(b, uint64(h.Slice))
						}
					}
				}
				for _, thr := range g.Thresholds() {
					b = binary.LittleEndian.AppendUint64(b, uint64(thr))
				}
			}
		}
	}
	return fnv64(fnvOffset, b)
}

// sameTables fails unless every ToR's compiled table built from warm is
// byte-identical to the one built from cold.
func sameTables(t *testing.T, what string, warm, cold *core.PathSet) {
	t.Helper()
	for tor := 0; tor < cold.F.NumToRs; tor++ {
		w := routing.CompileTable(warm, core.NewFlowAger(warm), tor)
		c := routing.CompileTable(cold, core.NewFlowAger(cold), tor)
		if !bytes.Equal(w.Bytes(), c.Bytes()) {
			t.Fatalf("%s: ToR %d's table compiled from the warm path set differs from cold", what, tor)
		}
	}
}

// TestSaveLoadRoundTrip: a saved fabric loads back — mapped and plain read —
// to a path set with the cold build's store bytes, from which every ToR
// compiles the cold build's table, across schedule kinds.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"round-robin", "opera", "random-circulant"} {
		f := testFabric(t, kind, 16, 4)
		p := Params{Alpha: 0.5}
		ps := compile(t, f, p)
		path := FileName(dir, f, p)
		if err := Save(path, ps, nil); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		wantStore := core.StoreFingerprint(ps)
		wantRows, wantCanon := ps.CanonStats()
		for _, opt := range []Options{{}, {NoMmap: true}} {
			warm, err := Load(path, f, p, opt)
			if err != nil {
				t.Fatalf("%s %+v: load: %v", kind, opt, err)
			}
			if got := core.StoreFingerprint(warm.PS); got != wantStore {
				t.Fatalf("%s %+v: warm store fingerprint %016x, cold %016x", kind, opt, got, wantStore)
			}
			if rows, canon := warm.PS.CanonStats(); rows != wantRows || canon != wantCanon {
				t.Fatalf("%s %+v: warm CanonStats (%d,%d), want (%d,%d)", kind, opt, rows, canon, wantRows, wantCanon)
			}
			if warm.PS.Calc.MaxParallel != core.DefaultMaxParallel {
				t.Fatalf("%s: warm MaxParallel %d, want default %d", kind, warm.PS.Calc.MaxParallel, core.DefaultMaxParallel)
			}
			sameTables(t, kind, warm.PS, ps)
		}
	}
}

// TestPathSetOutlivesFile: Load hands back a path set that holds nothing of
// the file. Truncating and removing the file after Load, mapped or read,
// leaves every view readable and the store's bytes those of the cold build;
// a view still aliasing the mapping would raise SIGBUS or SIGSEGV here.
func TestPathSetOutlivesFile(t *testing.T) {
	f := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}
	ps := compile(t, f, p)
	wantStore, wantWalk := core.StoreFingerprint(ps), walkViews(ps)
	for _, opt := range []Options{{}, {NoMmap: true}} {
		path := FileName(t.TempDir(), f, p)
		if err := Save(path, ps, nil); err != nil {
			t.Fatal(err)
		}
		warm, err := Load(path, f, p, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if got := core.StoreFingerprint(warm.PS); got != wantStore {
			t.Fatalf("%+v: store fingerprint %016x after the file went, want %016x", opt, got, wantStore)
		}
		if got := walkViews(warm.PS); got != wantWalk {
			t.Fatalf("%+v: views read %016x after the file went, want %016x", opt, got, wantWalk)
		}
	}
}

// TestFileNameKeys: distinct fabrics or params produce distinct cache file
// names; the same inputs reproduce the same name.
func TestFileNameKeys(t *testing.T) {
	f1 := testFabric(t, "round-robin", 16, 4)
	f2 := testFabric(t, "opera", 16, 4)
	p := Params{Alpha: 0.5}
	if FileName("d", f1, p) != FileName("d", f1, Params{Alpha: 0.5}) {
		t.Fatal("same fabric+params must map to the same file")
	}
	names := map[string]string{
		"schedule kind": FileName("d", f2, p),
		"alpha":         FileName("d", f1, Params{Alpha: 0.7}),
		"maxParallel":   FileName("d", f1, Params{Alpha: 0.5, MaxParallel: 2}),
	}
	base := FileName("d", f1, p)
	for what, name := range names {
		if name == base {
			t.Fatalf("changing %s must change the file name", what)
		}
	}
	// MaxParallel 0 and the explicit default are the same compiled content.
	if FileName("d", f1, Params{Alpha: 0.5, MaxParallel: core.DefaultMaxParallel}) != base {
		t.Fatal("default maxParallel must normalize to the same file")
	}
}

// TestLoadRejections: every way a file can be wrong — missing, truncated,
// bit-flipped anywhere, wrong version, wrong fabric, wrong params — is an
// error, never a panic or a partial fabric.
func TestLoadRejections(t *testing.T) {
	dir := t.TempDir()
	f := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}
	path := FileName(dir, f, p)
	if err := Save(path, compile(t, f, p), nil); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loadImg := func(img []byte) error {
		mut := filepath.Join(dir, "mut.ucmpfab")
		if err := os.WriteFile(mut, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(mut, f, p, Options{NoMmap: true})
		return err
	}

	if _, err := Load(filepath.Join(dir, "absent"), f, p, Options{}); err == nil {
		t.Fatal("missing file must error")
	}
	for _, cut := range []int{len(img) - 1, len(img) / 2, headerSize, headerSize - 1, 8, 0} {
		if err := loadImg(img[:cut]); err == nil {
			t.Fatalf("file truncated to %d bytes must error", cut)
		}
	}
	// Every single-byte flip in the whole image must be rejected: header
	// flips break the header checksum (or a validated field), payload flips
	// break the payload checksum.
	for i := 0; i < len(img); i++ {
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x10
		if err := loadImg(mut); err == nil {
			t.Fatalf("flipping byte %d must error", i)
		}
	}
	// Mismatched fabric: the same file under a different schedule.
	other := testFabric(t, "round-robin", 16, 6)
	if _, err := Load(path, other, p, Options{NoMmap: true}); err == nil {
		t.Fatal("loading under a different fabric must error")
	}
	// Mismatched params.
	if _, err := Load(path, f, Params{Alpha: 0.7}, Options{NoMmap: true}); err == nil {
		t.Fatal("loading under a different alpha must error")
	}
	if _, err := Load(path, f, Params{Alpha: 0.5, MaxParallel: 2}, Options{NoMmap: true}); err == nil {
		t.Fatal("loading under a different maxParallel must error")
	}
}

// TestSaveOverwrites: Save atomically replaces an existing file (the
// rebuild-and-overwrite path the harness takes after a failed load).
func TestSaveOverwrites(t *testing.T) {
	dir := t.TempDir()
	f := testFabric(t, "round-robin", 8, 4)
	p := Params{Alpha: 0.5}
	ps := compile(t, f, p)
	path := FileName(dir, f, p)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, f, p, Options{}); err == nil {
		t.Fatal("garbage file must fail to load")
	}
	if err := Save(path, ps, nil); err != nil {
		t.Fatal(err)
	}
	warm, err := Load(path, f, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if core.StoreFingerprint(warm.PS) != core.StoreFingerprint(ps) {
		t.Fatal("reloaded store differs after overwrite")
	}
}

// FuzzLoad: arbitrary file images never panic the loader, and whatever it
// accepts is a whole path set.
func FuzzLoad(f *testing.F) {
	fab := testFabric(f, "round-robin", 8, 4)
	p := Params{Alpha: 0.5}
	img, err := Encode(compile(f, fab, p))
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(v1File)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:headerSize])
	f.Add([]byte{})
	f.Add(v1)
	f.Fuzz(func(t *testing.T, img []byte) {
		ps, err := decode(img, fab, p)
		if err == nil {
			if ps == nil {
				t.Fatal("accepted fabric is partial")
			}
			walkViews(ps)
		}
	})
}

// TestSaveUnwritableDegrades: Save into an unwritable location returns an
// error (never a panic, never a partial cache file) — the harness warm path
// turns that into a warning plus a cold build.
func TestSaveUnwritableDegrades(t *testing.T) {
	fab := testFabric(t, "round-robin", 16, 4)
	ps := compile(t, fab, Params{Alpha: 0.5})

	// A regular file where the cache directory should be: MkdirAll fails
	// with ENOTDIR on every platform, even running as root (where a chmod'd
	// read-only directory would not block writes).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blocker, "sub", "fabric.ucmpfab")
	if err := Save(path, ps, nil); err == nil {
		t.Fatal("Save into an unwritable path succeeded")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("partial cache file left behind")
	}
}

// TestStaleTempCleanup: staging files left by a crashed Save are removed on
// the next Load of the directory; fresh ones (a Save possibly in flight)
// are left alone, and the cache file itself still loads.
func TestStaleTempCleanup(t *testing.T) {
	fab := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}

	dir := t.TempDir()
	path := FileName(dir, fab, p)
	if err := Save(path, compile(t, fab, p), nil); err != nil {
		t.Fatal(err)
	}

	stale := filepath.Join(dir, tempPrefix+"stale123")
	fresh := filepath.Join(dir, tempPrefix+"fresh456")
	for _, f := range []string{stale, fresh} {
		if err := os.WriteFile(f, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Load(path, fab, p, Options{NoMmap: true}); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Load: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp was removed: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache file itself was touched: %v", err)
	}
}

// TestVersion1FileRefused: v1File, written before the packed in-memory
// store, is refused by its version, mapped or read, and never served. Its
// header fields up to the section table and its spine and store sections
// are byte-equal to the image today's build encodes: dropping the table
// moved neither the header layout nor the store encoding.
func TestVersion1FileRefused(t *testing.T) {
	f := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}
	for _, opt := range []Options{{}, {NoMmap: true}} {
		_, err := Load(v1File, f, p, opt)
		if err == nil || !strings.Contains(err.Error(), "file version 1, want 2") {
			t.Fatalf("%+v: loading the version-1 file: %v, want a version refusal", opt, err)
		}
	}
	old, err := os.ReadFile(v1File)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Encode(compile(t, f, p))
	if err != nil {
		t.Fatal(err)
	}
	oldHead := append([]byte(nil), old[:64]...)
	binary.LittleEndian.PutUint32(oldHead[8:], version)
	if !bytes.Equal(oldHead, img[:64]) {
		t.Fatal("header fields before the section table differ from the version-1 file's")
	}
	section := func(b []byte, i int) []byte {
		off := binary.LittleEndian.Uint64(b[64+16*i:])
		return b[off : off+binary.LittleEndian.Uint64(b[72+16*i:])]
	}
	for i, name := range []string{"spine", "store"} {
		if !bytes.Equal(section(old, i), section(img, i)) {
			t.Fatalf("%s section differs from the version-1 file's", name)
		}
	}
}
