package bigraph

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzRead hardens the text parser: arbitrary input must either parse
// into a graph that re-serializes losslessly or fail cleanly — never
// panic. A parsed graph must also order its edges as the comparison sort
// does and keep every CSR row strictly sorted.
func FuzzRead(f *testing.F) {
	f.Add("mpmb-bigraph 2 3 1\n0 1 2.5 0.5\n")
	f.Add("mpmb-bigraph 0 0 0\n")
	f.Add("# comment\nmpmb-bigraph 1 1 1\n0 0 1 1\n")
	f.Add("mpmb-bigraph 1 1 2\n0 0 1 1\n")
	f.Add("garbage\n")
	f.Add("mpmb-bigraph 4294967295 1 0\n")
	// Oversized-header seeds: edge counts past the global limit, past the
	// bipartite capacity, and just inside both — the parser must reject
	// (or handle) each without allocating header-sized buffers.
	f.Add("mpmb-bigraph 2 2 8589934593\n")            // > maxTextEdges
	f.Add("mpmb-bigraph 2 2 999999999999999999999\n") // overflows int
	f.Add("mpmb-bigraph 2 2 5\n")                     // > numL*numR capacity
	f.Add("mpmb-bigraph 16777216 16777216 8589934592\n")
	f.Add("mpmb-bigraph 3 3 9\n0 0 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			t.Fatalf("parsed graph failed to serialize: %v", err)
		}
		g2, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if g2.NumL() != g.NumL() || g2.NumR() != g.NumR() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed dimensions")
		}
		if got, want := g.EdgesByWeightDesc(), weightOrderOracle(g); !slices.Equal(got, want) {
			t.Fatalf("weight order %v, comparator order %v", got, want)
		}
		checkRowsSorted(t, g)
	})
}

// FuzzReadBinary hardens the binary parser the same way.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and some prefixes of it.
	b := NewBuilder(2, 2)
	b.MustAddEdge(0, 1, 2.5, 0.75)
	b.MustAddEdge(1, 0, 1.5, 0.25)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("MPMBBIN1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("parsed graph failed to serialize: %v", err)
		}
		// A successfully parsed file must re-serialize byte-identically
		// up to its own length (the canonical encoding is unique).
		if !bytes.Equal(out.Bytes(), in[:len(out.Bytes())]) && len(in) == out.Len() {
			t.Fatal("binary round trip not canonical")
		}
	})
}

// FuzzReadVsReference holds Read to readRef, the parser it replaced: on
// every input both fail with the same message, or both yield the same
// sides, edges, offsets and rows. The seeds aim at what the byte-level
// parser changed: comment and blank lines between edges (the line a
// repeat is reported at), the first of two repeats in file order, a
// repeat before a later fault, every white space byte and two Unicode
// spaces, invalid UTF-8, ids past the 9-digit fast path, and a line past
// the scanner's 1 MiB limit. The 1 MiB seeds run only without -fuzz:
// once a mutant of one finds new coverage, the engine minimizes it for up
// to -fuzzminimizetime while no other input runs. Their cases, and the
// lines either side of the limit, are TestReadVsReferenceLongLines's.
func FuzzReadVsReference(f *testing.F) {
	seeds := []string{
		"mpmb-bigraph 3 3 3\n0 0 1 0.5\n# note\n\n1 1 2 0.5\n  \t\n# more\n2 2 3 0.5\n",
		"mpmb-bigraph 3 3 4\n1 1 1 0.5\n# note\n2 2 1 0.5\n2 2 1 0.5\n1 1 2 0.5\n",
		"mpmb-bigraph 3 3 4\n0 0 1 0.5\n# note\n0 0 2 0.5\n1 x 1 0.5\n",
		"mpmb-bigraph 3 3 5\n0 0 1 0.5\n\n1 1 1 0.5\n0 0 2 0.5\n",
		"mpmb-bigraph 3 3 4\n1 1 1 0.5\n0 0 1 0.5\n\n0 0 1 0.5\n1 1 1 0.5\n0 0 1 0.5\n",
		"mpmb-bigraph 2 2 2\n0 0 1 0.5\n0 0 1 0.5\n0 0 1 1.5\n",
		"mpmb-bigraph\t2\v2\f2\r\n0\t1\v2.5\f0.5\r\n1\r0 1 \t\v\f0.25\n",
		"\v# note\nmpmb-bigraph 2 2 1\n\f\n0 1 2 0.5\n",
		"mpmb-bigraph 2 2 2\n0 1 2 0.5\n1\u00850 2 0.5\n",
		" # note\nmpmb-bigraph 2 2 1\n0 1 2 0.5 \n",
		"mpmb-bigraph 2 2 1\n0 1 2 0.5\xff\n",
		"mpmb-bigraph 2 2 1\n\xc2 0 1 2 0.5\n",
		"mpmb-bigraph 2 2 2\n0000000001 1 2 0.5\n1 000000000 2 0.5\n",
		"mpmb-bigraph 2 2 1\n4294967296 0 1 0.5\n",
		"mpmb-bigraph 2 2 1\n0 99999999999999999999 1 0.5\n",
		"mpmb-bigraph 2 2 1\n999999999 0 1 0.5\n",
		"mpmb-bigraph 2 2 1\n+1 0 1 0.5\n",
		"mpmb-bigraph 2 2 1\n0 -1 1 0.5\n",
		"mpmb-bigraph 2 2 2\n0 0 0x1p-2 0x1p-1\n1 1 0X1.8P+1 1\n",
	}
	if flag.Lookup("test.fuzz").Value.String() == "" {
		seeds = append(seeds,
			"mpmb-bigraph 2 2 2\n0 0 1 0.5\n0 0 1 0.5\n# "+strings.Repeat("x", 1<<20)+"\n",
			"mpmb-bigraph 2 2 1\n0 0 1 0.5\n"+strings.Repeat(" ", 1<<20)+"\n")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := Read(strings.NewReader(in))
		want, wantErr := readRef(strings.NewReader(in))
		sameParse(t, got, err, want, wantErr)
	})
}

// TestReadVsReferenceLongLines holds Read to readRef on lines at the
// scanner's limit: a line of 1 MiB − 1 bytes before its newline still
// parses, and one a byte longer fails with the scanner's error, whether
// it is a comment, white space, or an edge padded with spaces; a repeated
// pair before an overlong comment still reports the repeat.
func TestReadVsReferenceLongLines(t *testing.T) {
	const limit = 1<<20 - 1 // the longest line the scanner takes
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5\n#" + strings.Repeat("x", limit-1) + "\n", true},
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5\n#" + strings.Repeat("x", limit) + "\n", false},
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5\n" + strings.Repeat(" ", limit) + "\n", true},
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5\n" + strings.Repeat(" ", 1<<20) + "\n", false},
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5" + strings.Repeat(" ", limit-9) + "\n", true},
		{"mpmb-bigraph 2 2 1\n0 0 1 0.5" + strings.Repeat(" ", limit-8) + "\n", false},
		{"mpmb-bigraph 2 2 2\n0 0 1 0.5\n0 0 1 0.5\n# " + strings.Repeat("x", 1<<20) + "\n", false},
	} {
		got, err := Read(strings.NewReader(tc.in))
		want, wantErr := readRef(strings.NewReader(tc.in))
		if (err == nil) != tc.ok {
			t.Fatalf("input of %d bytes: error %v, want success %v", len(tc.in), err, tc.ok)
		}
		sameParse(t, got, err, want, wantErr)
	}
}

// FuzzReadBinaryVsReference holds ReadBinary to readBinaryRef the same
// way. Its seeds repeat a pair before each later fault the format has: a
// bad record, a short record, a missing or wrong checksum.
func FuzzReadBinaryVsReference(f *testing.F) {
	edges := []Edge{{0, 1, 2.5, 0.75}, {1, 0, 1.5, 0.25}, {1, 1, -1, 1}}
	repeat := []Edge{{0, 1, 2.5, 0.75}, {1, 1, -1, 1}, {0, 1, 3, 0.5}, {1, 1, 0, 0}}
	valid := binaryFile(2, 2, edges)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(binaryFile(2, 2, repeat))
	f.Add(binaryFile(2, 2, append(slices.Clone(repeat), Edge{0, 0, 1, 1.5})))
	withRepeat := binaryFile(2, 2, repeat)
	f.Add(withRepeat[:len(withRepeat)-4])
	f.Add(withRepeat[:len(withRepeat)-10])
	withRepeat[len(withRepeat)-1] ^= 1
	f.Add(withRepeat)
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadBinary(bytes.NewReader(in))
		want, wantErr := readBinaryRef(bytes.NewReader(in))
		sameParse(t, got, err, want, wantErr)
	})
}

// binaryFile encodes a binary graph file with a valid checksum, without
// the Builder's checks, so its edges may repeat a pair.
func binaryFile(numL, numR uint32, edges []Edge) []byte {
	buf := append([]byte(nil), binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, numL)
	buf = binary.LittleEndian.AppendUint32(buf, numR)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, e.U)
		buf = binary.LittleEndian.AppendUint32(buf, e.V)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.W))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.P))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// sameParse fails t unless two parses of one input agree: the same error
// message, or graphs with the same sides, edges, offsets and rows.
func sameParse(t *testing.T, got *Graph, err error, want *Graph, wantErr error) {
	t.Helper()
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference error %v", err, wantErr)
		}
		return
	}
	if got.numL != want.numL || got.numR != want.numR {
		t.Fatalf("sides %d×%d, reference %d×%d", got.numL, got.numR, want.numL, want.numR)
	}
	if !slices.Equal(got.edges, want.edges) {
		t.Fatalf("edges %v, reference %v", got.edges, want.edges)
	}
	if !slices.Equal(got.lOff, want.lOff) || !slices.Equal(got.rOff, want.rOff) ||
		!slices.Equal(got.lAdj, want.lAdj) || !slices.Equal(got.rAdj, want.rAdj) {
		t.Fatal("CSR offsets or rows differ from the reference")
	}
}
