// Package checkpoint persists full simulation state so a killed long run
// resumes bit-identically instead of replaying from t=0 (DESIGN.md §15).
//
// A checkpoint file is a versioned, checksummed container of named sections.
// Each layer of the simulator (sim engines, netsim, transport, metrics,
// harness) encodes its own section through the Writer and decodes it back
// through the File; this package owns only the container discipline:
//
//	0   magic "UCMPCKP1"
//	8   u32 version, u32 section count
//	16  u64 payload length
//	24  u64 payload checksum (FNV-1a over bytes 40..EOF)
//	32  u64 header checksum (FNV-1a over bytes 0..32)
//	40  sections: { u32 nameLen, name, u64 bodyLen, body } ...
//
// Files are written atomically (temp file + rename, the same discipline as
// internal/fabriccache), so a crash mid-write leaves the previous checkpoint
// intact. Load validates magic, version, both checksums, and every section
// bound before handing out a single byte; any mismatch is an error, and the
// harness degrades a Load error to a clean cold run rather than failing.
//
// What is deliberately NOT serialized: closures. Pending events are
// re-encoded as pure descriptors (sim.EventDesc) tagged with model-level
// kinds (the Kind* constants below); the restore side rebuilds the pre-bound
// closures from the reconstructed model and replays the descriptors in
// recorded order. See DESIGN.md §15 for the rebuild-closures-on-restore
// rule and the full inventory of what each section carries.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

const (
	magic      = "UCMPCKP1"
	version    = 4
	headerSize = 40

	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// Event-descriptor kinds: the model-level identity of a pending event's
// closure. A and B in the sim.EventTag are operands whose meaning the kind
// fixes (component ids); packet-carrying kinds serialize the packet next to
// the descriptor. Kind 0 is reserved for "untagged" — an event no layer
// claimed, which makes a snapshot refuse rather than guess.
const (
	// netsim
	KindBoundary    uint8 = 1 + iota // slice-boundary callback; A = domain
	KindFlush                        // reserved: the ToR ingress flush was an event up to container version 3
	KindPumpDown                     // ToR→host downlink pump; A = host
	KindPumpHost                     // host→ToR NIC pump; A = host
	KindDeliverHost                  // downlink delivery; A = host, +packet
	KindRecvHost                     // NIC arrival at ToR; A = ToR, +packet
	KindIngress                      // ToR↔ToR link arrival; A = dst ToR, +packet
	KindWakeUplink                   // uplink pump timer; A = ToR, B = uplink index

	// transport
	KindFlowStart // sender start; A = flow dense index
	KindRcvStart  // receiver start (NDP repair arm); A = flow dense index
	KindTCPRTO    // TCP/DCTCP retransmission timer; A = flow dense index
	KindNDPRepair // NDP idle-repair timer; A = flow dense index
	KindPacer     // NDP pull-pacer drain timer; A = host

	// metrics
	KindSample // serial sampling tick; A unused

	// NumKinds bounds the registry: every kind above is below it.
	NumKinds
)

// kindNames are the registry's names as reports print them, by kind.
var kindNames = [NumKinds]string{
	"Untagged", "Boundary", "Flush", "PumpDown", "PumpHost", "DeliverHost", "RecvHost", "Ingress", "WakeUplink",
	"FlowStart", "RcvStart", "TCPRTO", "NDPRepair", "Pacer", "Sample",
}

// KindName names an event kind for reports; kinds outside the registry print
// as their number.
func KindName(kind uint8) string {
	if kind < NumKinds {
		return kindNames[kind]
	}
	return fmt.Sprintf("Kind%d", kind)
}

func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// blockSize is the unit a section body grows by. An Encoder appends into
// blocks of this size and never copies a filled one, so a body costs what it
// holds plus at most one partly filled block.
const blockSize = 64 << 10

// Encoder appends primitive values to a section body. All integers are
// little-endian and fixed-width: simplicity and a stable format over
// compactness — checkpoints are overwritten, not archived. A fixed-width
// value never straddles two blocks (a block may end a few bytes short); a
// string may. Encoders come from Writer.Section.
type Encoder struct {
	w    *Writer
	full [][]byte // filled blocks, in order
	cur  []byte   // the block being appended to
}

// room makes sure the current block has n bytes free, starting a new one
// when it has not.
func (e *Encoder) room(n int) {
	if cap(e.cur)-len(e.cur) >= n {
		return
	}
	if len(e.cur) > 0 {
		e.full = append(e.full, e.cur)
	}
	e.cur = e.w.block()
}

func (e *Encoder) U8(v uint8) {
	e.room(1)
	e.cur = append(e.cur, v)
}
func (e *Encoder) U32(v uint32) {
	e.room(4)
	e.cur = binary.LittleEndian.AppendUint32(e.cur, v)
}
func (e *Encoder) U64(v uint64) {
	e.room(8)
	e.cur = binary.LittleEndian.AppendUint64(e.cur, v)
}
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }
func (e *Encoder) F64(v float64) {
	e.U64(math.Float64bits(v))
}
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Encoder) Str(s string) {
	e.Len(len(s))
	for len(s) > 0 {
		e.room(1)
		n := copy(e.cur[len(e.cur):cap(e.cur)], s)
		e.cur = e.cur[:len(e.cur)+n]
		s = s[n:]
	}
}

// Len encodes a collection length. A length the u32 prefix cannot hold is
// the writer's error, which Save returns: written truncated, it would be a
// wrong count inside a correctly checksummed file.
func (e *Encoder) Len(n int) {
	if uint64(n) > math.MaxUint32 {
		e.w.fail(fmt.Errorf("checkpoint: length %d does not fit the u32 prefix", n))
	}
	e.U32(uint32(n))
}

// size is the body length in bytes.
func (e *Encoder) size() int {
	n := len(e.cur)
	for _, b := range e.full {
		n += len(b)
	}
	return n
}

// Decoder reads a section body back. Errors are sticky: the first bounds
// violation poisons the decoder, every later read returns zero values, and
// Err reports the failure — so decode walks read straight through and check
// once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: truncated section reading %s at offset %d", what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) I32() int32   { return int32(d.U32()) }
func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Decoder) Bool() bool   { return d.U8() != 0 }

func (d *Decoder) Str() string {
	n := d.U32()
	if uint64(n) > uint64(len(d.buf)-d.off) {
		d.fail("string")
		return ""
	}
	return string(d.take(int(n), "string"))
}

// Len decodes a collection length, rejecting counts that could not possibly
// fit in the remaining bytes (each element costs at least one byte) — a
// corrupted length then fails here instead of driving a giant allocation.
func (d *Decoder) Len() int {
	n := d.U32()
	if uint64(n) > uint64(len(d.buf)-d.off) {
		d.fail("length")
		return 0
	}
	return int(n)
}

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Writer accumulates named sections for one checkpoint file. One writer
// serves a whole run: Reset empties it between checkpoints and keeps its
// blocks, so writing stops allocating once the largest checkpoint so far has
// been written.
type Writer struct {
	names []string
	encs  []*Encoder
	free  [][]byte // empty blocks kept by Reset, handed out before new ones
	frame []byte   // scratch for one section frame
	err   error    // first encode failure; Save and Encode report it
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Section returns the encoder for a named section, creating it on first
// use. Sections are written in first-use order.
func (w *Writer) Section(name string) *Encoder {
	for i, n := range w.names {
		if n == name {
			return w.encs[i]
		}
	}
	e := &Encoder{w: w}
	w.names = append(w.names, name)
	w.encs = append(w.encs, e)
	return e
}

// Reset empties the writer for the next checkpoint: no sections and no
// error, exactly as NewWriter returns it, but with every block its sections
// held kept for reuse. An encoder handed out before Reset must not be used
// after it.
func (w *Writer) Reset() {
	for _, e := range w.encs {
		for _, b := range e.full {
			w.free = append(w.free, b[:0])
		}
		if cap(e.cur) > 0 {
			w.free = append(w.free, e.cur[:0])
		}
		*e = Encoder{}
	}
	clear(w.encs)
	w.names, w.encs, w.err = w.names[:0], w.encs[:0], nil
}

// block returns an empty block, a kept one if there is any.
func (w *Writer) block() []byte {
	if n := len(w.free); n > 0 {
		b := w.free[n-1]
		w.free = w.free[:n-1]
		return b
	}
	return make([]byte, 0, blockSize)
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// payload hands the payload to fn piece by piece, in file order: for each
// section its frame { u32 nameLen, name, u64 bodyLen }, then its blocks.
func (w *Writer) payload(fn func([]byte) error) error {
	for i, e := range w.encs {
		name := w.names[i]
		f := binary.LittleEndian.AppendUint32(w.frame[:0], uint32(len(name)))
		f = append(f, name...)
		f = binary.LittleEndian.AppendUint64(f, uint64(e.size()))
		w.frame = f
		if err := fn(f); err != nil {
			return err
		}
		for _, b := range e.full {
			if err := fn(b); err != nil {
				return err
			}
		}
		if len(e.cur) > 0 {
			if err := fn(e.cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTo streams the complete file to out: the header, whose length and
// checksum come from a first pass over the payload, then the payload itself
// straight from the section blocks.
func (w *Writer) writeTo(out io.Writer) error {
	if w.err != nil {
		return w.err
	}
	var plen uint64
	sum := uint64(fnvOffset)
	w.payload(func(b []byte) error {
		plen += uint64(len(b))
		sum = fnv64(sum, b)
		return nil
	})
	var hdr [headerSize]byte
	h := append(hdr[:0], magic...)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(w.names)))
	h = binary.LittleEndian.AppendUint64(h, plen)
	h = binary.LittleEndian.AppendUint64(h, sum)
	h = binary.LittleEndian.AppendUint64(h, fnv64(fnvOffset, h))
	if _, err := out.Write(h); err != nil {
		return err
	}
	return w.payload(func(b []byte) error {
		_, err := out.Write(b)
		return err
	})
}

// Encode returns the complete file image, the bytes Save writes, or nil
// after an encode failure.
func (w *Writer) Encode() []byte {
	var b bytes.Buffer
	if w.writeTo(&b) != nil {
		return nil
	}
	return b.Bytes()
}

// tempPrefix names the staging files Save writes before the rename;
// staleTempAge is how old one must be before Save takes it for the debris of
// a writer killed mid-Save rather than a save in flight.
const (
	tempPrefix   = ".ucmpckp-"
	staleTempAge = 10 * time.Minute
)

// Save writes the checkpoint to path atomically (temp file + rename),
// creating the directory if needed. A crash at any point leaves either the
// previous file or the new one, never a torn mix. Save also removes stale
// staging files from the directory, and reports an encode failure (a
// length past u32) instead of writing.
func (w *Writer) Save(path string) error {
	if w.err != nil {
		return w.err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	cleanStaleTemps(dir)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := w.writeTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// cleanStaleTemps removes staging files a killed Save left behind. It never
// touches one younger than staleTempAge — a concurrent Save (a sweep's
// trials share the directory) may still be writing it — and ignores every
// failure: cleanup is hygiene, not correctness.
func cleanStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) >= staleTempAge {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// File is a loaded, fully validated checkpoint.
type File struct {
	sections map[string][]byte
}

// Load reads and validates a checkpoint file: magic, version, header and
// payload checksums, and every section bound. Any corruption — down to a
// single flipped byte anywhere in the file — is an error.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("checkpoint: file is %d bytes, shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:8])
	}
	if got := binary.LittleEndian.Uint64(data[32:]); got != fnv64(fnvOffset, data[:32]) {
		return nil, fmt.Errorf("checkpoint: header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return nil, fmt.Errorf("checkpoint: file version %d, want %d", v, version)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	plen := binary.LittleEndian.Uint64(data[16:])
	if plen != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("checkpoint: payload length %d, file has %d", plen, len(data)-headerSize)
	}
	if got := binary.LittleEndian.Uint64(data[24:]); got != fnv64(fnvOffset, data[headerSize:]) {
		return nil, fmt.Errorf("checkpoint: payload checksum mismatch")
	}
	f := &File{sections: make(map[string][]byte, count)}
	off := headerSize
	for i := uint32(0); i < count; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("checkpoint: section %d header outside file", i)
		}
		nlen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nlen > len(data)-off {
			return nil, fmt.Errorf("checkpoint: section %d name outside file", i)
		}
		name := string(data[off : off+nlen])
		off += nlen
		if off+8 > len(data) {
			return nil, fmt.Errorf("checkpoint: section %q length outside file", name)
		}
		blen := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if blen > uint64(len(data)-off) {
			return nil, fmt.Errorf("checkpoint: section %q body outside file", name)
		}
		f.sections[name] = data[off : off+int(blen)]
		off += int(blen)
	}
	if off != len(data) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after sections", len(data)-off)
	}
	return f, nil
}

// Section returns a decoder over a named section, or an error if the
// checkpoint does not carry it.
func (f *File) Section(name string) (*Decoder, error) {
	body, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: missing section %q", name)
	}
	return &Decoder{buf: body}, nil
}

// FileName returns the checkpoint file path for a config key inside dir:
// one file per distinct configuration, overwritten at each checkpoint
// instant, so concurrent trials of a sweep never fight over a name.
func FileName(dir, configKey string) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ucmpckp", fnv64(fnvOffset, []byte(configKey))))
}
