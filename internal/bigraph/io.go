package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text interchange format is line-oriented:
//
//	# free-form comment lines start with '#'
//	mpmb-bigraph <numL> <numR> <numEdges>
//	<u> <v> <weight> <probability>
//	...
//
// The header line is mandatory and must come before any edge line. The
// declared edge count is validated against the number of edge lines.

const formatMagic = "mpmb-bigraph"

// maxVerticesPerSide bounds parsed partition sizes: a graph claiming more
// vertices per side than this is rejected before any allocation, so a
// malformed or hostile header cannot exhaust memory or stall parsing
// (each vertex costs CSR index space even with zero edges; fuzzing found
// a header-only file that burned ~1 GiB and ~50 s under a larger cap).
// 2²⁴ is ~90× the largest evaluation dataset's side.
const maxVerticesPerSide = 1 << 24

// maxTextEdges bounds the declared edge count of a text header, matching
// ReadBinary's limit: a header claiming more edges than any real dataset
// is hostile or corrupt, and rejecting it up front keeps the declared
// count safe to use for preallocation.
const maxTextEdges = 1 << 33

// Write serializes g in the text interchange format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s %d %d %d\n", formatMagic, g.numL, g.numR, len(g.edges)); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", e.U, e.V, e.W, e.P); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Save writes g to the named file, creating or truncating it.
func Save(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("bigraph: writing %s: %w", path, err)
	}
	return f.Close()
}

// Read parses a graph from the text interchange format.
func Read(r io.Reader) (*Graph, error) {
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

// Load reads a graph from the named file, auto-detecting the text or
// binary interchange format by its leading bytes.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == string(binaryMagic[:]) {
		g, err := ReadBinary(br)
		if err != nil {
			return nil, fmt.Errorf("bigraph: loading %s: %w", path, err)
		}
		return g, nil
	}
	g, err := Read(br)
	if err != nil {
		return nil, fmt.Errorf("bigraph: loading %s: %w", path, err)
	}
	return g, nil
}
