package bigraph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file freezes both graph parsers as they were before they found
// repeated pairs on the built graph and split text lines by hand, with
// Builder.AddEdge's duplicate map. FuzzReadVsReference and
// FuzzReadBinaryVsReference hold Read and ReadBinary to them: every input
// must fail with the same message or parse into the same graph. Do not
// change anything here.

// readRef is Read as it was before it split lines by hand.
func readRef(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	var b *Builder
	declared := -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 4 || fields[0] != formatMagic {
				return nil, fmt.Errorf("bigraph: line %d: expected header %q <numL> <numR> <numEdges>", lineNo, formatMagic)
			}
			numL, err := strconv.Atoi(fields[1])
			if err != nil || numL < 0 || numL > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numL %q (limit %d)", lineNo, fields[1], maxVerticesPerSide)
			}
			numR, err := strconv.Atoi(fields[2])
			if err != nil || numR < 0 || numR > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numR %q (limit %d)", lineNo, fields[2], maxVerticesPerSide)
			}
			declared, err = strconv.Atoi(fields[3])
			if err != nil || declared < 0 || int64(declared) > maxTextEdges {
				return nil, fmt.Errorf("bigraph: line %d: bad edge count %q (limit %d)", lineNo, fields[3], int64(maxTextEdges))
			}
			// A bipartite simple graph has at most numL·numR edges; a
			// header declaring more can never validate, so reject it
			// before parsing (and potentially buffering) the edge lines.
			if int64(declared) > int64(numL)*int64(numR) {
				return nil, fmt.Errorf("bigraph: line %d: header declares %d edges but a %d x %d graph holds at most %d",
					lineNo, declared, numL, numR, int64(numL)*int64(numR))
			}
			b = NewBuilder(numL, numR)
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("bigraph: line %d: expected '<u> <v> <w> <p>', got %d fields", lineNo, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad left vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad right vertex %q: %v", lineNo, fields[1], err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err)
		}
		p, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad probability %q: %v", lineNo, fields[3], err)
		}
		// Grow toward the vetted declared count, so the allocation stays
		// bounded by actual input rather than by a header's claim.
		b.reserve(declared)
		if err := b.AddEdge(VertexID(u), VertexID(v), w, p); err != nil {
			return nil, fmt.Errorf("bigraph: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("bigraph: missing header line")
	}
	if b.NumEdges() != declared {
		return nil, fmt.Errorf("bigraph: header declares %d edges but file contains %d", declared, b.NumEdges())
	}
	return b.build(), nil
}

// readBinaryRef is ReadBinary as it was before it checked for repeated
// pairs on the built graph.
func readBinaryRef(r io.Reader) (*Graph, error) {
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
	b := NewBuilder(int(numL), int(numR))
	var rec [edgeRecordSize]byte
	for i := uint64(0); i < numE; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("bigraph: reading edge %d: %w", i, err)
		}
		u := binary.LittleEndian.Uint32(rec[0:])
		v := binary.LittleEndian.Uint32(rec[4:])
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		p := math.Float64frombits(binary.LittleEndian.Uint64(rec[16:]))
		b.reserve(int(numE))
		if err := b.AddEdge(u, v, w, p); err != nil {
			return nil, fmt.Errorf("bigraph: edge %d: %w", i, err)
		}
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("bigraph: reading checksum: %w", err)
	}
	g := b.build()
	if got, want := binary.LittleEndian.Uint32(tail[:]), payloadCRC(g); got != want {
		return nil, fmt.Errorf("bigraph: checksum mismatch: file %08x, payload %08x", got, want)
	}
	return g, nil
}
