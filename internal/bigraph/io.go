package bigraph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"unicode/utf8"
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
//
// It splits each line at white space as strings.Fields does, but on the
// scanner's bytes, with no string per line, and reads a plain vertex id
// of up to 9 digits without strconv. A repeated pair is found on the
// finished graph (Builder.parsed); lines maps its edge back to its line,
// and a fault at a later line still reports the repeat first.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	var b *Builder
	var lines lineIndex
	at := func(id EdgeID) string { return fmt.Sprintf("line %d", lines.line(int(id))) }
	declared := -1
	var fields [4][]byte
	for sc.Scan() {
		lineNo++
		nf := splitFields(&fields, sc.Bytes())
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
		if b == nil {
			if nf != 4 || string(fields[0]) != formatMagic {
				return nil, fmt.Errorf("bigraph: line %d: expected header %q <numL> <numR> <numEdges>", lineNo, formatMagic)
			}
			numL, err := strconv.Atoi(string(fields[1]))
			if err != nil || numL < 0 || numL > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numL %q (limit %d)", lineNo, fields[1], maxVerticesPerSide)
			}
			numR, err := strconv.Atoi(string(fields[2]))
			if err != nil || numR < 0 || numR > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numR %q (limit %d)", lineNo, fields[2], maxVerticesPerSide)
			}
			declared, err = strconv.Atoi(string(fields[3]))
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
		if nf != 4 {
			return b.parsed(fmt.Errorf("bigraph: line %d: expected '<u> <v> <w> <p>', got %d fields", lineNo, nf), at)
		}
		u, err := parseID(fields[0])
		if err != nil {
			return b.parsed(fmt.Errorf("bigraph: line %d: bad left vertex %q: %v", lineNo, fields[0], err), at)
		}
		v, err := parseID(fields[1])
		if err != nil {
			return b.parsed(fmt.Errorf("bigraph: line %d: bad right vertex %q: %v", lineNo, fields[1], err), at)
		}
		w, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return b.parsed(fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err), at)
		}
		p, err := strconv.ParseFloat(string(fields[3]), 64)
		if err != nil {
			return b.parsed(fmt.Errorf("bigraph: line %d: bad probability %q: %v", lineNo, fields[3], err), at)
		}
		if err := b.check(VertexID(u), VertexID(v), w, p); err != nil {
			return b.parsed(fmt.Errorf("bigraph: line %d: %w", lineNo, err), at)
		}
		// Grow toward the vetted declared count, so the allocation stays
		// bounded by actual input rather than by a header's claim.
		b.reserve(declared)
		lines.add(len(b.edges), lineNo)
		b.edges = append(b.edges, Edge{U: VertexID(u), V: VertexID(v), W: w, P: p})
	}
	err := sc.Err()
	if b == nil {
		if err == nil {
			err = fmt.Errorf("bigraph: missing header line")
		}
		return nil, err
	}
	if err == nil && b.NumEdges() != declared {
		err = fmt.Errorf("bigraph: header declares %d edges but file contains %d", declared, b.NumEdges())
	}
	return b.parsed(err, at)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts, the bytes
// strings.Fields splits an ASCII line at.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line at white space as strings.Fields splits it,
// stores the first len(f) fields in f without copying, and returns the
// number of fields. A line holding a non-ASCII byte goes to bytes.Fields,
// which splits at Unicode white space exactly as strings.Fields does.
func splitFields(f *[4][]byte, line []byte) int {
	n, start := 0, -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			all := bytes.Fields(line)
			copy(f[:], all)
			return len(all)
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n, start = n+1, -1
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n
}

// parseID parses a vertex id as strconv.ParseUint(string(s), 10, 32)
// does. A plain id of 1 to 9 digits cannot overflow 32 bits, so it is
// read digit by digit; anything else goes to strconv.
func parseID(s []byte) (uint64, error) {
	if len(s) == 0 || len(s) > 9 {
		return strconv.ParseUint(string(s), 10, 32)
	}
	var n uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return strconv.ParseUint(string(s), 10, 32)
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// lineIndex maps the edges of a text file back to their lines. It holds
// one step per run of edges on consecutive lines, the run's first edge
// and its line minus its edge index, so a file with no comment or blank
// line among its edges needs one step.
type lineIndex []struct{ edge, shift int }

// add records that edge sits on line; edges are added in order.
func (x *lineIndex) add(edge, line int) {
	if n := len(*x); n == 0 || (*x)[n-1].shift != line-edge {
		*x = append(*x, struct{ edge, shift int }{edge, line - edge})
	}
}

// line returns the line of an added edge.
func (x lineIndex) line(edge int) int {
	i := sort.Search(len(x), func(i int) bool { return x[i].edge > edge }) - 1
	return edge + x[i].shift
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
