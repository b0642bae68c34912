package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// body returns a section body as one slice.
func body(e *Encoder) []byte {
	var b []byte
	for _, blk := range e.full {
		b = append(b, blk...)
	}
	return append(b, e.cur...)
}

// op is one encoder call, made alike on the Writer under test and on the
// oracle: kind 'b' U8, 'w' U32, 'q' U64, 'n' Len, 's' Str, 'o' only opens
// the section.
type op struct {
	sec  string
	kind byte
	v    uint64
	s    string
}

func (o op) apply(w *Writer) {
	e := w.Section(o.sec)
	switch o.kind {
	case 'b':
		e.U8(uint8(o.v))
	case 'w':
		e.U32(uint32(o.v))
	case 'q':
		e.U64(o.v)
	case 'n':
		e.Len(int(o.v))
	case 's':
		e.Str(o.s)
	}
}

// oracleImage encodes one checkpoint's calls the way the writer did before
// section bodies grew in blocks — one slice per section, grown by append —
// and assembles the file with encodeOracle.
func oracleImage(ops []op) []byte {
	var names []string
	bodies := map[string][]byte{}
	for _, o := range ops {
		b, ok := bodies[o.sec]
		if !ok {
			names = append(names, o.sec)
		}
		switch o.kind {
		case 'b':
			b = append(b, uint8(o.v))
		case 'w', 'n':
			b = binary.LittleEndian.AppendUint32(b, uint32(o.v))
		case 'q':
			b = binary.LittleEndian.AppendUint64(b, o.v)
		case 's':
			b = binary.LittleEndian.AppendUint32(b, uint32(len(o.s)))
			b = append(b, o.s...)
		}
		bodies[o.sec] = b
	}
	return encodeOracle(names, bodies)
}

// encodeOracle is the container assembly as Writer.Encode did it before Save
// streamed from blocks: every section copied into one payload, then into the
// image behind the header.
func encodeOracle(names []string, bodies map[string][]byte) []byte {
	payload := make([]byte, 0, 4096)
	for _, name := range names {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(name)))
		payload = append(payload, name...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(len(bodies[name])))
		payload = append(payload, bodies[name]...)
	}
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(names)))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint64(out, fnv64(fnvOffset, payload))
	out = binary.LittleEndian.AppendUint64(out, fnv64(fnvOffset, out))
	return append(out, payload...)
}

func repeat(sec string, kind byte, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{sec: sec, kind: kind, v: uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	return ops
}

func concat(parts ...[]op) []op {
	var ops []op
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

// randomRound draws one checkpoint's calls over up to six sections, with
// strings long enough to span blocks now and then.
func randomRound(rng *rand.Rand) []op {
	var ops []op
	nsec := 1 + rng.Intn(6)
	for i, n := 0, rng.Intn(40000); i < n; i++ {
		o := op{sec: fmt.Sprintf("s%d", rng.Intn(nsec)), kind: "bwqns"[rng.Intn(5)], v: rng.Uint64()}
		switch o.kind {
		case 'n':
			o.v %= 1 << 32
		case 's':
			size := rng.Intn(40)
			if rng.Intn(500) == 0 {
				size = rng.Intn(3 * blockSize)
			}
			o.s = strings.Repeat(string(rune('a'+rng.Intn(26))), size)
		}
		ops = append(ops, o)
	}
	return ops
}

// oracleCase is a run of checkpoints written through one Writer.
type oracleCase struct {
	name   string
	rounds [][]op
}

// TestWriterMatchesOracle: every file Save writes, and every image Encode
// returns, is byte for byte what the pre-block writer produced from the same
// calls — across block edges, for reopened sections, and for a reused
// Writer whose next checkpoint uses fewer sections in another order.
func TestWriterMatchesOracle(t *testing.T) {
	edge := func(sec string, fill int) []op { return repeat(sec, 'b', fill) }
	cases := []oracleCase{
		{"no sections", [][]op{nil}},
		{"empty section", [][]op{{{sec: "empty", kind: 'o'}, {sec: "after", kind: 'q', v: 7}}}},
		{"exactly one block", [][]op{repeat("one", 'q', blockSize/8)}},
		{"one block and a byte", [][]op{concat(repeat("one", 'q', blockSize/8), repeat("one", 'b', 1))}},
		{"u64 past a block edge", [][]op{concat(edge("e", blockSize-3), repeat("e", 'q', 2))}},
		{"len past a block edge", [][]op{concat(edge("e", blockSize-2), []op{{sec: "e", kind: 'n', v: 12345}})}},
		{"str across a block edge", [][]op{concat(edge("e", blockSize-5), []op{{sec: "e", kind: 's', s: "straddles the edge"}}, repeat("e", 'w', 3))}},
		{"str spanning blocks", [][]op{{{sec: "long", kind: 'b', v: 1}, {sec: "long", kind: 's', s: strings.Repeat("xyz", blockSize)}, {sec: "long", kind: 'q', v: 2}}}},
		{"alpha beta alpha", [][]op{{{sec: "alpha", kind: 'b', v: 7}, {sec: "beta", kind: 'q', v: 42}, {sec: "alpha", kind: 'b', v: 99}}}},
		{"reused writer", [][]op{
			concat(repeat("a", 'q', 30000), repeat("b", 'w', 50000), repeat("c", 'b', 70000)),
			concat(repeat("c", 'q', 100), repeat("a", 'b', 3*blockSize)),
			{{sec: "b", kind: 'o'}},
			nil,
			concat(repeat("d", 'q', 9000), repeat("a", 'w', 10)),
		}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rounds := make([][]op, 1+rng.Intn(4))
		for i := range rounds {
			rounds[i] = randomRound(rng)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("seed %d", seed), rounds})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.ucmpckp")
			w := NewWriter()
			for r, ops := range tc.rounds {
				w.Reset()
				for _, o := range ops {
					o.apply(w)
				}
				want := oracleImage(ops)
				if err := w.Save(path); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: Save wrote %d bytes, the oracle %d, first difference at %d",
						r, len(got), len(want), firstDiff(got, want))
				}
				if img := w.Encode(); !bytes.Equal(img, want) {
					t.Fatalf("round %d: Encode differs from the oracle at %d", r, firstDiff(img, want))
				}
				if _, err := Load(path); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// A Save killed between writing its temp file and the rename leaves the temp
// behind; the next Save into the directory removes it once it is older than
// staleTempAge, and leaves a fresh one (a save in flight) and other files be.
func TestSaveRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tempPrefix+"stale123")
	fresh := filepath.Join(dir, tempPrefix+"fresh456")
	other := filepath.Join(dir, "ckpt-old.ucmpckp")
	old := time.Now().Add(-2 * staleTempAge)
	for _, f := range []string{stale, fresh, other} {
		if err := os.WriteFile(f, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{stale, other} {
		if err := os.Chtimes(f, old, old); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWriter()
	w.Section("s").U8(1)
	if err := w.Save(filepath.Join(dir, "x.ucmpckp")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Save: %v", err)
	}
	for _, f := range []string{fresh, other} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("%s was removed: %v", filepath.Base(f), err)
		}
	}
}

// A length the u32 prefix cannot hold fails the save instead of writing a
// truncated count into a correctly checksummed file; the error sticks until
// Reset.
func TestLenOverflowFailsSave(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot hold 2^32 here")
	}
	big := uint64(1) << 32
	for _, n := range []int{int(big), -1} {
		path := filepath.Join(t.TempDir(), "x.ucmpckp")
		w := NewWriter()
		w.Section("a").U8(1)
		w.Section("b").Len(n)
		w.Section("b").Len(3)
		if err := w.Save(path); err == nil || !strings.Contains(err.Error(), "u32") {
			t.Fatalf("Len(%d): Save returned %v", n, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("Len(%d): a file was written: %v", n, err)
		}
		if img := w.Encode(); img != nil {
			t.Fatalf("Len(%d): Encode returned %d bytes", n, len(img))
		}
		w.Reset()
		w.Section("a").U8(1)
		if err := w.Save(path); err != nil {
			t.Fatalf("after Reset: %v", err)
		}
	}
}
