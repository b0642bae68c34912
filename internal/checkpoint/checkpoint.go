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
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// Encoder appends primitive values to a section body. All integers are
// little-endian and fixed-width: simplicity and a stable format over
// compactness — checkpoints are overwritten, not archived.
type Encoder struct {
	buf []byte
}

func (e *Encoder) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I32(v int32)  { e.U32(uint32(v)) }
func (e *Encoder) I64(v int64)  { e.U64(uint64(v)) }
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
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Len encodes a collection length.
func (e *Encoder) Len(n int) { e.U32(uint32(n)) }

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

// Writer accumulates named sections for one checkpoint file.
type Writer struct {
	names []string
	encs  []*Encoder
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
	e := &Encoder{}
	w.names = append(w.names, name)
	w.encs = append(w.encs, e)
	return e
}

// Encode assembles the complete file image.
func (w *Writer) Encode() []byte {
	payload := make([]byte, 0, 4096)
	for i, name := range w.names {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(name)))
		payload = append(payload, name...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(len(w.encs[i].buf)))
		payload = append(payload, w.encs[i].buf...)
	}
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(w.names)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint64(out, fnv64(fnvOffset, payload))
	out = binary.LittleEndian.AppendUint64(out, fnv64(fnvOffset, out))
	return append(out, payload...)
}

// Save writes the checkpoint to path atomically (temp file + rename),
// creating the directory if needed. A crash at any point leaves either the
// previous file or the new one, never a torn mix.
func (w *Writer) Save(path string) error {
	img := w.Encode()
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".ucmpckp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(img); err != nil {
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
