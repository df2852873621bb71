package bigraph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(10), 1+r.Intn(10)
		b := NewBuilder(numL, numR)
		for i := 0; i < r.Intn(40); i++ {
			_ = b.AddEdge(VertexID(r.Intn(numL)), VertexID(r.Intn(numR)), r.Float64()*10, r.Float64())
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g2.NumL() != g.NumL() || g2.NumR() != g.NumR() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCorruptionDetected(t *testing.T) {
	g := buildFigure1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one probability byte in an edge record (offset into payload:
	// 8 magic + 16 header + first record's p field at +16).
	corrupt := append([]byte(nil), data...)
	corrupt[8+16+16] ^= 0x01
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupted edge accepted")
	}

	// Flip one weight byte: the value stays a valid float, so only the
	// checksum catches it.
	corrupt = append([]byte(nil), data...)
	corrupt[8+16+8] ^= 0x01
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("checksum mismatch accepted")
	}

	// Truncations at every boundary.
	for _, cut := range []int{0, 4, 8, 20, len(data) - 2} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Bad magic.
	corrupt = append([]byte(nil), data...)
	corrupt[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Absurd edge count.
	corrupt = append([]byte(nil), data...)
	for i := 16; i < 24; i++ {
		corrupt[i] = 0xff
	}
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("absurd edge count accepted")
	}
}

func TestLoadAutoDetectsFormat(t *testing.T) {
	g := buildFigure1(t)
	dir := t.TempDir()

	textPath := filepath.Join(dir, "fig1.graph")
	if err := Save(textPath, g); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "fig1.bgraph")
	if err := SaveBinary(binPath, g); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{textPath, binPath} {
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if got.NumEdges() != g.NumEdges() {
			t.Fatalf("Load(%s) lost edges", path)
		}
		for i := 0; i < g.NumEdges(); i++ {
			if got.Edge(EdgeID(i)) != g.Edge(EdgeID(i)) {
				t.Fatalf("Load(%s) edge %d differs", path, i)
			}
		}
	}
}

func TestSaveBinaryBadPath(t *testing.T) {
	g := buildFigure1(t)
	if err := SaveBinary(filepath.Join(t.TempDir(), "no", "dir", "x.bgraph"), g); err == nil {
		t.Fatal("SaveBinary succeeded on an invalid path")
	}
}

// TestChecksumMemoized: Checksum computes a graph's CRC once. The memo
// must equal a fresh payloadCRC, on graphs built by hand and on graphs
// ReadBinary stored the CRC of; concurrent first calls must agree (run
// under -race); and a repeat call must not allocate.
func TestChecksumMemoized(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		numL, numR := 1+r.Intn(12), 1+r.Intn(12)
		b := NewBuilder(numL, numR)
		for j := 0; j < r.Intn(60); j++ {
			_ = b.AddEdge(VertexID(r.Intn(numL)), VertexID(r.Intn(numR)), r.NormFloat64(), r.Float64())
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		read, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := payloadCRC(g)
		for _, h := range []*Graph{g, g, read, read} {
			if got := h.Checksum(); got != want {
				t.Fatalf("graph %d: Checksum %08x, payload CRC %08x", i, got, want)
			}
		}
	}

	g := benchGraph(300, 300, 5000)
	want := payloadCRC(g)
	var wg sync.WaitGroup
	got := make([]uint32, 8)
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = g.Checksum()
		}()
	}
	wg.Wait()
	for k, c := range got {
		if c != want {
			t.Fatalf("concurrent call %d: Checksum %08x, payload CRC %08x", k, c, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Checksum() }); allocs != 0 {
		t.Fatalf("a repeat Checksum call allocates %v times", allocs)
	}
}
