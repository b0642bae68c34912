// Package fabriccache persists compiled fabrics — the symmetric PathSet's
// canonical spine + group store and ToR 0's CompiledTable — in a
// versioned binary file served back via mmap (DESIGN.md §14). Since the
// canonical build of PRs 14–15 a load is about as fast as the build it
// replaces (1024 ToRs × 8 uplinks: ~0.35 s cold, ~0.3 s loaded; the table
// in §14); what the file still buys is that multiple processes loading it
// share one copy of the hot arrays through the page cache.
//
// File layout (little-endian):
//
//	0   magic "UCMPFAB1"
//	8   u32 version, u32 reserved
//	16  u64 schedule fingerprint (topo.Schedule.Fingerprint)
//	24  u64 alpha bits, u64 linkBps bits, u64 sliceMicros bits (float64)
//	48  u32 maxParallel, u32 n, u32 d, u32 s
//	64  3 × {u64 offset, u64 length}: spine, store, table sections
//	112 u64 payload checksum (FNV-1a over bytes 128..EOF)
//	120 u64 header checksum (FNV-1a over bytes 0..120)
//	128 payload; section offsets are absolute and 8-byte aligned
//
// Identity, not freshness: the header pins everything the compiled content
// depends on — the schedule's structural fingerprint and the cost-model
// parameters — so a stale or foreign file is rejected with an error and can
// never silently serve a different fabric. Cache file NAMES also embed the
// fingerprint (FileName), so rebuilding a changed fabric writes a new file
// instead of fighting over one.
//
// Ownership: Load returns a Fabric handle owning the underlying mapping.
// The PathSet is always decoded into its own packed store, but all four
// CompiledTable arrays may alias the mapping, so the handle must outlive
// every use of Table; Close unmaps and invalidates it. Long-lived caches
// (harness) simply never Close — read-only mappings cost address space, not
// dirty pages.
package fabriccache

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ucmp/internal/core"
	"ucmp/internal/routing"
	"ucmp/internal/topo"
)

const (
	magic      = "UCMPFAB1"
	version    = 1
	headerSize = 128

	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// Params are the build parameters baked into a compiled fabric beyond the
// schedule itself.
type Params struct {
	// Alpha is the §5.2 cost-model weight factor the path set was built with.
	Alpha float64
	// MaxParallel caps tied parallel solutions per hop count; <= 0 means the
	// calculator default.
	MaxParallel int
}

// effMaxParallel normalizes the cap the way core.NewCalculator applies it,
// so 0 and the explicit default address the same file.
func effMaxParallel(mp int) int {
	if mp <= 0 {
		return core.DefaultMaxParallel
	}
	return mp
}

// Fabric is a warm compiled fabric loaded from a cache file. Table may
// alias the underlying file mapping; see the package comment for the
// lifetime rule.
type Fabric struct {
	PS    *core.PathSet
	Table *routing.CompiledTable // ToR 0's table; other ToRs compile lazily

	data   []byte
	mapped bool
}

// Close releases the file mapping. PS and Table must not be used afterward.
func (f *Fabric) Close() error {
	data, mapped := f.data, f.mapped
	f.PS, f.Table, f.data, f.mapped = nil, nil, nil, false
	if mapped {
		return unmap(data)
	}
	return nil
}

func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// FileName returns the cache file name for a fabric + params combination
// inside dir. The name embeds a digest of the schedule fingerprint, fabric
// configuration and build parameters, so distinct fabrics get distinct
// files and a changed fabric is a cache miss by name.
func FileName(dir string, f *topo.Fabric, p Params) string {
	key := make([]byte, 0, 64)
	u64 := func(v uint64) { key = binary.LittleEndian.AppendUint64(key, v) }
	u64(f.Sched.Fingerprint())
	u64(math.Float64bits(p.Alpha))
	u64(math.Float64bits(float64(f.LinkBps)))
	u64(math.Float64bits(f.SliceDuration.Micros()))
	u64(uint64(effMaxParallel(p.MaxParallel)))
	u64(uint64(f.NumToRs))
	u64(uint64(f.Uplinks))
	return filepath.Join(dir, fmt.Sprintf("fabric-%016x.ucmpfab", fnv64(fnvOffset, key)))
}

// Encode assembles the complete file image for a compiled fabric. The path
// set must be a symmetric build (the canonical form is the only one worth
// persisting — brute spines are O(S·N²)) and the table must be ToR 0's.
func Encode(ps *core.PathSet, table *routing.CompiledTable) ([]byte, error) {
	if table.Tor != 0 {
		return nil, fmt.Errorf("fabriccache: table is for ToR %d, want 0", table.Tor)
	}
	spine, store, err := ps.EncodeCanonical()
	if err != nil {
		return nil, err
	}
	align := func(b []byte) []byte {
		for len(b)%8 != 0 {
			b = append(b, 0)
		}
		return b
	}
	out := make([]byte, headerSize, headerSize+len(spine)+len(store)+len(store)/2)
	spineOff := len(out)
	out = align(append(out, spine...))
	storeOff := len(out)
	out = align(append(out, store...))
	tableOff := len(out)
	out = table.AppendPacked(out)
	tableLen := len(out) - tableOff

	h := out[:0:headerSize]
	h = append(h, magic...)
	u32 := func(v uint32) { h = binary.LittleEndian.AppendUint32(h, v) }
	u64 := func(v uint64) { h = binary.LittleEndian.AppendUint64(h, v) }
	u32(version)
	u32(0)
	u64(ps.F.Sched.Fingerprint())
	u64(math.Float64bits(ps.Model.Alpha))
	u64(math.Float64bits(ps.Model.LinkBps))
	u64(math.Float64bits(ps.Model.SliceMicros))
	u32(uint32(ps.Calc.MaxParallel))
	u32(uint32(ps.F.NumToRs))
	u32(uint32(ps.F.Uplinks))
	u32(uint32(ps.F.Sched.S))
	for _, sec := range [][2]int{{spineOff, len(spine)}, {storeOff, len(store)}, {tableOff, tableLen}} {
		u64(uint64(sec[0]))
		u64(uint64(sec[1]))
	}
	u64(fnv64(fnvOffset, out[headerSize:]))
	u64(fnv64(fnvOffset, h))
	if len(h) != headerSize {
		panic("fabriccache: header layout drifted")
	}
	return out, nil
}

// Save writes the compiled fabric to path atomically (temp file + rename),
// creating the directory if needed.
func Save(path string, ps *core.PathSet, table *routing.CompiledTable) error {
	img, err := Encode(ps, table)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tempPrefix+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// tempPrefix names the atomic-write staging files Save creates next to the
// cache file; staleTempAge is how old such a file must be before cleanup
// treats it as the debris of a crashed writer rather than a save in flight.
const (
	tempPrefix   = ".ucmpfab-"
	staleTempAge = 10 * time.Minute
)

// cleanStaleTemps removes staging files a crashed or killed Save left
// behind. Called from Load (the "next open" of the cache directory), it
// never touches a temp younger than staleTempAge — a concurrent Save may
// still be writing it — and every failure is ignored: cleanup is hygiene,
// not correctness.
func cleanStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if time.Since(info.ModTime()) >= staleTempAge {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Options tunes Load.
type Options struct {
	// NoAlias forces the copying table decode: Table owns its arrays and the
	// mapping is released before Load returns. Slower and bigger, but the
	// result outlives the handle — and it is the differential path that
	// keeps the copying decoder honest in tests.
	NoAlias bool
	// NoMmap reads the file into memory instead of mapping it (aliasing
	// still applies to the heap copy). Mostly for tests.
	NoMmap bool
}

// Load maps (or reads) a compiled-fabric file and rebuilds the warm PathSet
// and ToR-0 table for the given fabric. Every mismatch — magic, version,
// checksums, schedule fingerprint, cost-model params, dimensions, any
// structural defect in the payload — is an error and never a partial or
// wrong fabric. The caller owns the returned handle (see package comment).
func Load(path string, fab *topo.Fabric, p Params, opt Options) (*Fabric, error) {
	cleanStaleTemps(filepath.Dir(path))
	data, mapped, err := readFile(path, opt.NoMmap)
	if err != nil {
		return nil, err
	}
	release := func() {
		if mapped {
			unmap(data)
		}
	}
	ld, err := decode(data, fab, p, opt)
	if err != nil {
		release()
		return nil, err
	}
	if opt.NoAlias {
		// Nothing references the file image; drop it eagerly.
		release()
		return &Fabric{PS: ld.PS, Table: ld.Table}, nil
	}
	ld.data, ld.mapped = data, mapped
	return ld, nil
}

// decode validates the file image against the expected fabric and params
// and rebuilds the path set and table.
func decode(data []byte, fab *topo.Fabric, p Params, opt Options) (*Fabric, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("fabriccache: file is %d bytes, shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("fabriccache: bad magic %q", data[:8])
	}
	if got := binary.LittleEndian.Uint64(data[120:]); got != fnv64(fnvOffset, data[:120]) {
		return nil, fmt.Errorf("fabriccache: header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return nil, fmt.Errorf("fabriccache: file version %d, want %d", v, version)
	}
	if got, want := binary.LittleEndian.Uint64(data[16:]), fab.Sched.Fingerprint(); got != want {
		return nil, fmt.Errorf("fabriccache: schedule fingerprint %016x, want %016x — file is for a different fabric", got, want)
	}
	wantAlpha := math.Float64bits(p.Alpha)
	wantLink := math.Float64bits(float64(fab.LinkBps))
	wantSlice := math.Float64bits(fab.SliceDuration.Micros())
	if a := binary.LittleEndian.Uint64(data[24:]); a != wantAlpha {
		return nil, fmt.Errorf("fabriccache: alpha %v, want %v", math.Float64frombits(a), p.Alpha)
	}
	if l := binary.LittleEndian.Uint64(data[32:]); l != wantLink {
		return nil, fmt.Errorf("fabriccache: link rate differs")
	}
	if s := binary.LittleEndian.Uint64(data[40:]); s != wantSlice {
		return nil, fmt.Errorf("fabriccache: slice duration differs")
	}
	if mp := int(binary.LittleEndian.Uint32(data[48:])); mp != effMaxParallel(p.MaxParallel) {
		return nil, fmt.Errorf("fabriccache: maxParallel %d, want %d", mp, effMaxParallel(p.MaxParallel))
	}
	if n := int(binary.LittleEndian.Uint32(data[52:])); n != fab.NumToRs {
		return nil, fmt.Errorf("fabriccache: n = %d, want %d", n, fab.NumToRs)
	}
	if d := int(binary.LittleEndian.Uint32(data[56:])); d != fab.Uplinks {
		return nil, fmt.Errorf("fabriccache: d = %d, want %d", d, fab.Uplinks)
	}
	if s := int(binary.LittleEndian.Uint32(data[60:])); s != fab.Sched.S {
		return nil, fmt.Errorf("fabriccache: s = %d, want %d", s, fab.Sched.S)
	}
	if got := binary.LittleEndian.Uint64(data[112:]); got != fnv64(fnvOffset, data[headerSize:]) {
		return nil, fmt.Errorf("fabriccache: payload checksum mismatch")
	}
	sections := make([][]byte, 3)
	for i := range sections {
		off := binary.LittleEndian.Uint64(data[64+16*i:])
		ln := binary.LittleEndian.Uint64(data[72+16*i:])
		if off%8 != 0 || off < headerSize || off > uint64(len(data)) || ln > uint64(len(data))-off {
			return nil, fmt.Errorf("fabriccache: section %d [%d,+%d) outside file of %d bytes", i, off, ln, len(data))
		}
		sections[i] = data[off : off+ln]
	}
	ps, err := core.DecodeCanonical(fab, p.Alpha, p.MaxParallel, sections[0], sections[1])
	if err != nil {
		return nil, err
	}
	table, err := routing.DecodePacked(sections[2], routing.DecodeOptions{NoAlias: opt.NoAlias})
	if err != nil {
		return nil, err
	}
	if table.Tor != 0 {
		return nil, fmt.Errorf("fabriccache: table is for ToR %d, want 0", table.Tor)
	}
	if err := table.Validate(ps); err != nil {
		return nil, err
	}
	return &Fabric{PS: ps, Table: table}, nil
}

// readFile maps the file read-only, falling back to a plain read when
// mapping is unavailable or refused.
func readFile(path string, noMmap bool) (data []byte, mapped bool, err error) {
	if !noMmap {
		if data, ok := mapPath(path); ok {
			return data, true, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, false, err
}
