package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// TestCandidatesCodecRoundTrip: a prepared set and the full backbone set
// (zero hits, no preparing trial) decode to the set that was encoded, and
// only against the graph they were listed on.
func TestCandidatesCodecRoundTrip(t *testing.T) {
	b := bigraph.NewBuilder(6, 6)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), float64(1+(u*7+v*3)%5), 0.3+0.1*float64((u+2*v)%6))
		}
	}
	g := b.Build()
	prepared, err := PrepareCandidates(g, 60, 7, OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if prepared.Len() == 0 || all.Len() <= prepared.Len() {
		t.Fatalf("fixture: %d prepared of %d backbone candidates", prepared.Len(), all.Len())
	}
	for name, c := range map[string]*Candidates{"prepared": prepared, "all": all} {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeCandidates(g, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%s: decoded set differs\n got: %+v\nwant: %+v", name, got, c)
		}
		if _, err := DecodeCandidates(figure1Graph(), bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("%s: decoded against another graph", name)
		}
	}
	var buf bytes.Buffer
	ck := &Checkpoint{Method: "os", Trials: 1, Done: 1, GraphCRC: g.Checksum()}
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCandidates(g, &buf); err == nil {
		t.Fatal("a sampling checkpoint decoded as a candidate set")
	}
}
