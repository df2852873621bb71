package bigraph

import (
	"bytes"
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
