package routing

import (
	"encoding/binary"
	"fmt"

	"ucmp/internal/byteview"
)

// Packed-table codec (DESIGN.md §14). Blob layout, all little-endian, each
// array padded to an 8-byte offset relative to the blob start:
//
//	u32 tor, u32 n, u32 s, u32 nb
//	u32 nCells (= n*s+1), pad;  nCells  × i32 cellStart
//	u32 nEntries,         pad;  nEntries × {u16 bucketStart, u16 actN, i32 actStart}
//	u32 nActs,            pad;  nActs    × {i32 hopStart, u16 hopN, u16 zero}
//	u32 nHops,            pad;  nHops    × {i32 to, i32 rel}
//
// The four records are the in-memory layouts of cellStart, packedEntry,
// actSpan and PackedHop, so on a little-endian host with the blob itself
// 8-byte aligned (the fabric file aligns its sections) DecodePacked aliases
// all four arrays straight into the blob — the hot lookup arrays are then
// served from the mmap'd page cache with zero copies. Big-endian hosts,
// misaligned blobs, or DecodeOptions{NoAlias: true} decode by copying.

// DecodeOptions tunes DecodePacked.
type DecodeOptions struct {
	// NoAlias forces the copying decode even where aliasing would be legal —
	// the differential path for testing, and an escape hatch for callers
	// that must outlive the blob's backing memory.
	NoAlias bool
}

// AppendPacked appends the table's codec blob to out and returns it. The
// caller must place the blob at an 8-byte-aligned offset if the result is
// to be aliased at decode time.
func (t *CompiledTable) AppendPacked(out []byte) []byte {
	base := len(out)
	u32 := func(v int) { out = binary.LittleEndian.AppendUint32(out, uint32(v)) }
	pad := func() {
		for (len(out)-base)%8 != 0 {
			out = append(out, 0)
		}
	}
	u32(t.Tor)
	u32(t.n)
	u32(t.s)
	u32(t.nb)
	u32(len(t.cellStart))
	pad()
	for _, c := range t.cellStart {
		u32(int(c))
	}
	u32(len(t.entries))
	pad()
	for _, e := range t.entries {
		out = binary.LittleEndian.AppendUint16(out, e.bucketStart)
		out = binary.LittleEndian.AppendUint16(out, e.actN)
		u32(int(e.actStart))
	}
	u32(len(t.acts))
	pad()
	for _, a := range t.acts {
		u32(int(a.hopStart))
		out = binary.LittleEndian.AppendUint16(out, a.hopN)
		out = binary.LittleEndian.AppendUint16(out, 0) // struct padding, pinned zero
	}
	u32(len(t.hops))
	pad()
	for _, h := range t.hops {
		u32(int(h.To))
		u32(int(h.Rel))
	}
	return out
}

// blobReader walks a codec blob with bounds checking: every read that would
// pass the end returns an error instead of panicking, so corrupted or
// truncated files surface as errors and never as partial tables.
type blobReader struct {
	b   []byte
	off int
}

func (r *blobReader) u32(what string) (int, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("routing: truncated table blob at %s (offset %d)", what, r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(int32(v)), nil
}

func (r *blobReader) pad8() {
	for r.off%8 != 0 {
		r.off++
	}
}

// array reserves n records of recSize bytes and returns their region.
func (r *blobReader) array(what string, n, recSize int) ([]byte, error) {
	if n < 0 || n > (len(r.b)-r.off)/recSize {
		return nil, fmt.Errorf("routing: table blob claims %d %s beyond its %d bytes", n, what, len(r.b))
	}
	reg := r.b[r.off : r.off+n*recSize]
	r.off += n * recSize
	return reg, nil
}

// DecodePacked rebuilds a CompiledTable from a codec blob, aliasing the
// arrays into the blob when possible (see package comment). It fully
// bounds-checks the structure — counts against the blob length, spans
// against their arrays, cell starts against the entry count — so untrusted
// input yields an error, never a panic or an out-of-range table.
func DecodePacked(blob []byte, opt DecodeOptions) (*CompiledTable, error) {
	r := &blobReader{b: blob}
	t := &CompiledTable{}
	var err error
	if t.Tor, err = r.u32("tor"); err != nil {
		return nil, err
	}
	if t.n, err = r.u32("n"); err != nil {
		return nil, err
	}
	if t.s, err = r.u32("s"); err != nil {
		return nil, err
	}
	if t.nb, err = r.u32("nb"); err != nil {
		return nil, err
	}
	if t.n <= 0 || t.s <= 0 || t.nb <= 0 || t.Tor < 0 || t.Tor >= t.n ||
		t.n > 1<<20 || t.s > 1<<20 {
		return nil, fmt.Errorf("routing: implausible table dimensions tor=%d n=%d s=%d nb=%d", t.Tor, t.n, t.s, t.nb)
	}
	nCells, err := r.u32("nCells")
	if err != nil {
		return nil, err
	}
	if nCells != t.n*t.s+1 {
		return nil, fmt.Errorf("routing: cell count %d, want %d", nCells, t.n*t.s+1)
	}
	r.pad8()
	cellRegion, err := r.array("cells", nCells, 4)
	if err != nil {
		return nil, err
	}
	nEntries, err := r.u32("nEntries")
	if err != nil {
		return nil, err
	}
	r.pad8()
	entryRegion, err := r.array("entries", nEntries, 8)
	if err != nil {
		return nil, err
	}
	nActs, err := r.u32("nActs")
	if err != nil {
		return nil, err
	}
	r.pad8()
	actRegion, err := r.array("acts", nActs, 8)
	if err != nil {
		return nil, err
	}
	nHops, err := r.u32("nHops")
	if err != nil {
		return nil, err
	}
	r.pad8()
	hopRegion, err := r.array("hops", nHops, 8)
	if err != nil {
		return nil, err
	}

	if opt.NoAlias {
		t.cellStart, t.entries, t.acts, t.hops = nil, nil, nil, nil
	} else {
		t.cellStart, _ = byteview.Of[int32](cellRegion, nCells)
		t.entries, _ = byteview.Of[packedEntry](entryRegion, nEntries)
		t.acts, _ = byteview.Of[actSpan](actRegion, nActs)
		t.hops, _ = byteview.Of[PackedHop](hopRegion, nHops)
	}
	if t.cellStart == nil {
		t.cellStart = make([]int32, nCells)
		for i := range t.cellStart {
			t.cellStart[i] = int32(binary.LittleEndian.Uint32(cellRegion[4*i:]))
		}
	}
	if t.entries == nil {
		t.entries = make([]packedEntry, nEntries)
		for i := range t.entries {
			rec := entryRegion[8*i:]
			t.entries[i] = packedEntry{
				bucketStart: binary.LittleEndian.Uint16(rec),
				actN:        binary.LittleEndian.Uint16(rec[2:]),
				actStart:    int32(binary.LittleEndian.Uint32(rec[4:])),
			}
		}
	}
	if t.acts == nil {
		t.acts = make([]actSpan, nActs)
		for i := range t.acts {
			rec := actRegion[8*i:]
			t.acts[i] = actSpan{
				hopStart: int32(binary.LittleEndian.Uint32(rec)),
				hopN:     binary.LittleEndian.Uint16(rec[4:]),
			}
		}
	}
	if t.hops == nil {
		t.hops = make([]PackedHop, nHops)
		for i := range t.hops {
			rec := hopRegion[8*i:]
			t.hops[i] = PackedHop{
				To:  int32(binary.LittleEndian.Uint32(rec)),
				Rel: int32(binary.LittleEndian.Uint32(rec[4:])),
			}
		}
	}

	// Structural bounds: every index a lookup can follow stays in range.
	prev := int32(0)
	for i, c := range t.cellStart {
		if c < prev || int(c) > nEntries {
			return nil, fmt.Errorf("routing: cellStart[%d]=%d out of order or range", i, c)
		}
		prev = c
	}
	if int(t.cellStart[nCells-1]) != nEntries {
		return nil, fmt.Errorf("routing: cellStart does not cover all %d entries", nEntries)
	}
	for i, e := range t.entries {
		if e.actN == 0 || int(e.actStart) < 0 || int(e.actStart)+int(e.actN) > nActs {
			return nil, fmt.Errorf("routing: entry %d action span [%d,+%d) out of range", i, e.actStart, e.actN)
		}
		if int(e.bucketStart) >= t.nb {
			return nil, fmt.Errorf("routing: entry %d bucketStart %d >= %d buckets", i, e.bucketStart, t.nb)
		}
	}
	for i, a := range t.acts {
		if a.hopN == 0 || int(a.hopStart) < 0 || int(a.hopStart)+int(a.hopN) > nHops {
			return nil, fmt.Errorf("routing: act %d hop span [%d,+%d) out of range", i, a.hopStart, a.hopN)
		}
	}
	for i, h := range t.hops {
		if int(h.To) < 0 || int(h.To) >= t.n || h.Rel < 0 {
			return nil, fmt.Errorf("routing: hop %d (%d,%d) out of range", i, h.To, h.Rel)
		}
	}
	return t, nil
}
