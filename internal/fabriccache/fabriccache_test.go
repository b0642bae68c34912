package fabriccache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

func testFabric(t testing.TB, kind string, n, d int) *topo.Fabric {
	cfg := topo.Scaled()
	cfg.NumToRs, cfg.Uplinks = n, d
	f, err := topo.NewFabric(cfg, kind, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func compile(t testing.TB, f *topo.Fabric, p Params) (*core.PathSet, *routing.CompiledTable) {
	ps := core.BuildPathSetWith(f, p.Alpha, p.MaxParallel)
	if !ps.Symmetric() {
		t.Fatalf("build not symmetric")
	}
	return ps, routing.CompileTable(ps, core.NewFlowAger(ps), 0)
}

// TestSaveLoadRoundTrip: a saved fabric loads back — mmap'd/aliased, plain
// read, and fully copying — with the exact same compiled table bytes and an
// equivalent path set, across schedule kinds.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"round-robin", "opera", "random-circulant"} {
		f := testFabric(t, kind, 16, 4)
		p := Params{Alpha: 0.5}
		ps, table := compile(t, f, p)
		path := FileName(dir, f, p)
		if err := Save(path, ps, table); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		wantTable := table.Bytes()
		wantRows, wantCanon := ps.CanonStats()
		for _, opt := range []Options{{}, {NoMmap: true}, {NoAlias: true}} {
			warm, err := Load(path, f, p, opt)
			if err != nil {
				t.Fatalf("%s %+v: load: %v", kind, opt, err)
			}
			if !bytes.Equal(warm.Table.Bytes(), wantTable) {
				t.Fatalf("%s %+v: warm table differs from cold", kind, opt)
			}
			if rows, canon := warm.PS.CanonStats(); rows != wantRows || canon != wantCanon {
				t.Fatalf("%s %+v: warm CanonStats (%d,%d), want (%d,%d)", kind, opt, rows, canon, wantRows, wantCanon)
			}
			if warm.PS.Calc.MaxParallel != core.DefaultMaxParallel {
				t.Fatalf("%s: warm MaxParallel %d, want default %d", kind, warm.PS.Calc.MaxParallel, core.DefaultMaxParallel)
			}
			// Recompiling ToR 0 from the warm path set must reproduce the
			// loaded table exactly — the differential that pins warm == cold.
			re := routing.CompileTable(warm.PS, core.NewFlowAger(warm.PS), 0)
			if !bytes.Equal(re.Bytes(), wantTable) {
				t.Fatalf("%s %+v: table recompiled from warm path set differs", kind, opt)
			}
			if err := warm.Close(); err != nil {
				t.Fatalf("%s: close: %v", kind, err)
			}
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
	ps, table := compile(t, f, p)
	path := FileName(dir, f, p)
	if err := Save(path, ps, table); err != nil {
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
		warm, err := Load(mut, f, p, Options{NoMmap: true})
		if err == nil {
			warm.Close()
		}
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
	ps, table := compile(t, f, p)
	path := FileName(dir, f, p)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, f, p, Options{}); err == nil {
		t.Fatal("garbage file must fail to load")
	}
	if err := Save(path, ps, table); err != nil {
		t.Fatal(err)
	}
	warm, err := Load(path, f, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !bytes.Equal(warm.Table.Bytes(), table.Bytes()) {
		t.Fatal("reloaded table differs after overwrite")
	}
}

// FuzzLoad: arbitrary file images never panic the loader.
func FuzzLoad(f *testing.F) {
	fab := testFabric(f, "round-robin", 8, 4)
	p := Params{Alpha: 0.5}
	ps, table := compile(f, fab, p)
	img, err := Encode(ps, table)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:headerSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		warm, err := decode(img, fab, p, Options{NoAlias: true})
		if err == nil {
			// Anything the loader accepts must be a complete, valid fabric.
			if warm.PS == nil || warm.Table == nil {
				t.Fatal("accepted fabric is partial")
			}
			if err := warm.Table.Validate(warm.PS); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestSaveUnwritableDegrades: Save into an unwritable location returns an
// error (never a panic, never a partial cache file) — the harness warm path
// turns that into a warning plus a cold build.
func TestSaveUnwritableDegrades(t *testing.T) {
	fab := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}
	ps, table := compile(t, fab, p)

	// A regular file where the cache directory should be: MkdirAll fails
	// with ENOTDIR on every platform, even running as root (where a chmod'd
	// read-only directory would not block writes).
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(blocker, "sub", "fabric.ucmpfab")
	if err := Save(path, ps, table); err == nil {
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
	ps, table := compile(t, fab, p)

	dir := t.TempDir()
	path := FileName(dir, fab, p)
	if err := Save(path, ps, table); err != nil {
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

	wf, err := Load(path, fab, p, Options{NoMmap: true, NoAlias: true})
	if err != nil {
		t.Fatal(err)
	}
	wf.Close()

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

// TestLoadsFileWrittenBeforePackedStore: the file format is independent of
// the in-memory group representation. testdata holds a (16,4) round-robin
// fabric written by the last commit whose PathSet was a graph of *Group
// (PR 14); it must load, yield the cold build's table, and be exactly the
// image today's build encodes — so files travel both ways across the change.
func TestLoadsFileWrittenBeforePackedStore(t *testing.T) {
	const golden = "testdata/pr14-round-robin-16x4.ucmpfab"
	f := testFabric(t, "round-robin", 16, 4)
	p := Params{Alpha: 0.5}
	ps, table := compile(t, f, p)
	for _, opt := range []Options{{}, {NoMmap: true, NoAlias: true}} {
		warm, err := Load(golden, f, p, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		re := routing.CompileTable(warm.PS, core.NewFlowAger(warm.PS), 0)
		if !bytes.Equal(re.Bytes(), table.Bytes()) || !bytes.Equal(warm.Table.Bytes(), table.Bytes()) {
			t.Fatalf("%+v: tables from the PR 14 file differ from the cold build", opt)
		}
		if err := warm.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Encode(ps, table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("today's image (%d bytes) differs from the PR 14 file (%d bytes)", len(img), len(want))
	}
}
