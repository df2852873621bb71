package bigraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary interchange format, for datasets where the text format's parse
// cost matters (the Protein analogue is ~1M edges):
//
//	magic   [8]byte  "MPMBBIN1"
//	numL    uint32   little endian
//	numR    uint32
//	numE    uint64
//	edges   numE × { u uint32, v uint32, w float64, p float64 }
//	crc     uint32   IEEE CRC-32 over everything above
//
// Load sniffs the magic, so one loader handles both formats.

var binaryMagic = [8]byte{'M', 'P', 'M', 'B', 'B', 'I', 'N', '1'}

const edgeRecordSize = 4 + 4 + 8 + 8

// WriteBinary serializes g in the binary interchange format.
func WriteBinary(w io.Writer, g *Graph) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	// The CRC must cover exactly the bytes written; writing through the
	// MultiWriter via the buffer keeps them in lockstep because the
	// buffer flushes to both sinks together.
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.numL))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.numR))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [edgeRecordSize]byte
	for _, e := range g.edges {
		binary.LittleEndian.PutUint32(rec[0:], e.U)
		binary.LittleEndian.PutUint32(rec[4:], e.V)
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(e.P))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// ReadBinary parses a graph from the binary interchange format,
// validating every edge and the trailing checksum. The CRC runs over the
// bytes as read, which are the canonical payload of the parsed content,
// and is checked before the graph is built; the graph keeps it as its
// Checksum. A repeated pair is found on the built graph
// (Builder.parsed), and a fault met after it still reports the repeat
// first, at its index.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)

	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading binary magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("bigraph: bad binary magic %q", magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading binary header: %w", err)
	}
	numL := binary.LittleEndian.Uint32(hdr[0:])
	numR := binary.LittleEndian.Uint32(hdr[4:])
	numE := binary.LittleEndian.Uint64(hdr[8:])
	const maxEdges = 1 << 33 // refuse absurd headers before allocating
	if numE > maxEdges {
		return nil, fmt.Errorf("bigraph: binary header declares %d edges (limit %d)", numE, uint64(maxEdges))
	}
	if numL > maxVerticesPerSide || numR > maxVerticesPerSide {
		return nil, fmt.Errorf("bigraph: binary header declares %d×%d vertices (limit %d per side)", numL, numR, maxVerticesPerSide)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(magic[:]), crc32.IEEETable, hdr[:])
	b := NewBuilder(int(numL), int(numR))
	at := func(id EdgeID) string { return fmt.Sprintf("edge %d", id) }
	var rec [edgeRecordSize]byte
	for i := uint64(0); i < numE; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return b.parsed(fmt.Errorf("bigraph: reading edge %d: %w", i, err), at)
		}
		sum = crc32.Update(sum, crc32.IEEETable, rec[:])
		u := binary.LittleEndian.Uint32(rec[0:])
		v := binary.LittleEndian.Uint32(rec[4:])
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		p := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
		if err := b.check(u, v, w, p); err != nil {
			return b.parsed(fmt.Errorf("bigraph: edge %d: %w", i, err), at)
		}
		b.reserve(int(numE))
		b.edges = append(b.edges, Edge{U: u, V: v, W: w, P: p})
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return b.parsed(fmt.Errorf("bigraph: reading checksum: %w", err), at)
	}
	var err error
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		err = fmt.Errorf("bigraph: checksum mismatch: file %08x, payload %08x", got, sum)
	}
	g, err := b.parsed(err, at)
	if err != nil {
		return nil, err
	}
	g.crc.Store(1<<32 | uint64(sum))
	return g, nil
}

// payloadCRC computes the CRC-32 of g's canonical binary payload (magic,
// header, edge records) without materializing it.
func payloadCRC(g *Graph) uint32 {
	crc := crc32.NewIEEE()
	crc.Write(binaryMagic[:])
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(g.numL))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.numR))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.edges)))
	crc.Write(hdr[:])
	var rec [edgeRecordSize]byte
	for _, e := range g.edges {
		binary.LittleEndian.PutUint32(rec[0:], e.U)
		binary.LittleEndian.PutUint32(rec[4:], e.V)
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(e.P))
		crc.Write(rec[:])
	}
	return crc.Sum32()
}

// Checksum returns the CRC-32 of g's canonical binary payload — a cheap
// fingerprint that identifies the graph's exact content (partitions,
// edges, weights, probabilities). Run checkpoints embed it so that a
// resume against a different graph is refused instead of silently
// producing garbage.
//
// A graph never changes, so the first call computes the CRC and later
// calls return it; concurrent first calls each compute the same value.
// ReadBinary stores the CRC it has verified.
func (g *Graph) Checksum() uint32 {
	if c := g.crc.Load(); c != 0 {
		return uint32(c)
	}
	c := payloadCRC(g)
	g.crc.Store(1<<32 | uint64(c))
	return c
}

// SaveBinary writes g to the named file in the binary format.
func SaveBinary(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return fmt.Errorf("bigraph: writing %s: %w", path, err)
	}
	return f.Close()
}
