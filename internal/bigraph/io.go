package bigraph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
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
// input's bytes, with no string per line, and reads a plain vertex id
// of up to 9 digits without strconv. A repeated pair is found on the
// finished graph (Builder.parsed); lines maps its edge back to its line,
// and a fault at a later line still reports the repeat first.
//
// After the header, the input is cut into blocks of whole lines
// (splitBlocks), and every block goes through one block parser
// (textBlock.parse). The first blocks parse on the calling goroutine;
// past them, GOMAXPROCS workers parse blocks while the caller reads on
// and appends each block's edges in input order (textReader.body).
func Read(r io.Reader) (*Graph, error) {
	return readText(r, textBlockSize, runtime.GOMAXPROCS(0))
}

const (
	// maxLine bounds the scanner's buffer, and so a line: one of maxLine
	// or more bytes before its newline fails with bufio.ErrTooLong.
	maxLine = 1 << 20
	// textBlockSize is the size of the blocks Read cuts its input into.
	textBlockSize = 64 << 10
	// seqBlocks is how many blocks Read parses on the calling goroutine
	// before it starts workers, so input under 1 MiB starts none.
	seqBlocks = 16
)

// readText is Read with the block size and the worker count as
// parameters.
func readText(r io.Reader, size, workers int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, size), maxLine)
	sc.Split(splitBlocks(size))
	t := &textReader{sc: sc}
	first, err := t.header()
	if first == nil {
		return nil, err
	}
	if err = t.body(first, workers); err == nil && t.b.NumEdges() != t.declared {
		err = fmt.Errorf("bigraph: header declares %d edges but file contains %d", t.declared, t.b.NumEdges())
	}
	return t.b.parsed(err, func(id EdgeID) string { return fmt.Sprintf("line %d", t.lines.line(int(id))) })
}

// splitBlocks returns a bufio.SplitFunc whose tokens are blocks of whole
// lines: the lines that end within the first size bytes, or when none
// does, the first line, however long; at the end of the input, what is
// left, a last line without its newline. So the scanner keeps its rules
// for lines: one of maxLine or more bytes fills its buffer without a
// newline and fails with bufio.ErrTooLong.
func splitBlocks(size int) bufio.SplitFunc {
	return func(data []byte, atEOF bool) (int, []byte, error) {
		i := bytes.LastIndexByte(data[:min(size, len(data))], '\n')
		if i < 0 {
			i = bytes.IndexByte(data, '\n')
		}
		switch {
		case i >= 0:
			return i + 1, data[:i+1], nil
		case atEOF && len(data) > 0:
			return len(data), data, nil
		}
		return 0, nil, nil
	}
}

// textReader is the state of one text parse.
type textReader struct {
	sc       *bufio.Scanner // its tokens are blocks (splitBlocks)
	b        *Builder       // made from the header
	declared int            // the header's edge count
	lines    lineIndex
	line0    int // the lines before the next block
	blocks   int // the blocks read so far
}

// textBlock is one block of whole lines and what the block parser made
// of it.
type textBlock struct {
	data  []byte // the lines, in the scanner's buffer or in buf
	buf   []byte // the block's own copy of its lines, once it needs one
	line0 int    // the lines before the block's first
	edges []Edge
	lines lineIndex // steps of edges, indexed within the block
	err   error     // the first fault; edges holds the edges before it
	done  chan struct{}
}

// take puts the scanner's block into blk. The next Scan overwrites the
// block in the scanner's buffer, so a block that parses after it is
// copied into its own buffer.
func (t *textReader) take(blk *textBlock, copied bool) {
	blk.data = t.sc.Bytes()
	if copied {
		blk.buf = append(blk.buf[:0], blk.data...)
		blk.data = blk.buf
	}
	blk.line0 = t.line0
	t.line0 += bytes.Count(blk.data, newline)
	t.blocks++
}

var newline = []byte{'\n'}

// header reads up to the header line, the first line that is neither
// blank nor a comment, and makes t.b from it. It returns the header's
// block, cut to the lines after the header, or a nil block and the
// fault.
func (t *textReader) header() (*textBlock, error) {
	blk := new(textBlock)
	var data []byte // the lines of blk not yet read
	var fields [4][]byte
	for lineNo := 0; ; {
		if len(data) == 0 {
			if !t.sc.Scan() {
				if err := t.sc.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("bigraph: missing header line")
			}
			t.take(blk, false)
			data = blk.data
			continue
		}
		var line []byte
		line, data = cutLine(data)
		lineNo++
		nf := splitFields(&fields, line)
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
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
		declared, err := strconv.Atoi(string(fields[3]))
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
		t.b, t.declared = NewBuilder(numL, numR), declared
		blk.data, blk.line0 = data, lineNo
		return blk, nil
	}
}

// body parses the body's blocks from first on and appends their edges
// in input order. The first seqBlocks blocks of the input parse on the
// calling goroutine, and so do all blocks when workers < 2; the rest
// parse on workers goroutines, with at most 2·workers+1 blocks read and
// not yet appended. body returns the first fault in input order, or
// else the scanner's error, and only once every goroutine it started
// has exited.
func (t *textReader) body(first *textBlock, workers int) error {
	var work chan *textBlock
	var wg sync.WaitGroup
	defer func() {
		if work != nil {
			close(work)
			wg.Wait()
		}
	}()
	first.err = first.parse(t.b)
	queue := []*textBlock{first} // read, not yet appended, in input order
	var free []*textBlock
	for more := true; len(queue) > 0 || more; {
		// Append the oldest block once it is parsed; wait for it when no
		// further block may be read.
		if len(queue) > 0 && (!more || len(queue) == 2*workers+1 || queue[0].parsed()) {
			blk := queue[0]
			queue = queue[:copy(queue, queue[1:])]
			if blk.done != nil {
				<-blk.done
			}
			if err := t.collect(blk); err != nil {
				return err
			}
			free = append(free, blk)
			continue
		}
		if more = t.sc.Scan(); !more {
			continue
		}
		var blk *textBlock
		if n := len(free); n > 0 {
			blk, free = free[n-1], free[:n-1]
		} else {
			blk = new(textBlock)
		}
		inline := t.blocks < seqBlocks || workers < 2
		t.take(blk, !inline)
		queue = append(queue, blk)
		if inline {
			blk.err, blk.done = blk.parse(t.b), nil
			continue
		}
		if work == nil {
			work = make(chan *textBlock)
			wg.Add(workers)
			for range workers {
				go func() {
					defer wg.Done()
					for blk := range work {
						blk.err = blk.parse(t.b)
						close(blk.done)
					}
				}()
			}
		}
		blk.done = make(chan struct{})
		work <- blk
	}
	return t.sc.Err()
}

// parsed reports whether blk's lines are parsed, without waiting.
func (blk *textBlock) parsed() bool {
	select {
	case <-blk.done:
		return true
	default:
		return blk.done == nil
	}
}

// collect appends blk's edges and line steps to the parse's, growing the
// edge slice toward the vetted declared count (Builder.reserve), so the
// allocation stays bounded by actual input rather than by a header's
// claim. It returns blk's fault.
func (t *textReader) collect(blk *textBlock) error {
	base := len(t.b.edges)
	for _, st := range blk.lines {
		t.lines.add(base+st.edge, st.edge+st.shift)
	}
	for es := blk.edges; len(es) > 0; {
		t.b.reserve(t.declared)
		k := min(len(es), max(cap(t.b.edges)-len(t.b.edges), 1))
		t.b.edges = append(t.b.edges, es[:k]...)
		es = es[k:]
	}
	return blk.err
}

// parse is the block parser: it runs the per-line code over the lines of
// blk, numbered from blk.line0+1, keeps the edge of every edge line in
// blk.edges and its line in blk.lines, and returns the first line's
// fault, with the edges before it kept. It reads only the sides of b.
func (blk *textBlock) parse(b *Builder) error {
	// A block holds at most one edge per line.
	if lines := bytes.Count(blk.data, newline) + 1; cap(blk.edges) < lines {
		blk.edges = make([]Edge, 0, lines)
	}
	blk.edges, blk.lines = blk.edges[:0], blk.lines[:0]
	var fields [4][]byte
	lineNo := blk.line0
	for data := blk.data; len(data) > 0; {
		var line []byte
		line, data = cutLine(data)
		lineNo++
		nf := splitFields(&fields, line)
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
		if nf != 4 {
			return fmt.Errorf("bigraph: line %d: expected '<u> <v> <w> <p>', got %d fields", lineNo, nf)
		}
		u, err := parseID(fields[0])
		if err != nil {
			return fmt.Errorf("bigraph: line %d: bad left vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := parseID(fields[1])
		if err != nil {
			return fmt.Errorf("bigraph: line %d: bad right vertex %q: %v", lineNo, fields[1], err)
		}
		w, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err)
		}
		p, err := strconv.ParseFloat(string(fields[3]), 64)
		if err != nil {
			return fmt.Errorf("bigraph: line %d: bad probability %q: %v", lineNo, fields[3], err)
		}
		if err := b.check(VertexID(u), VertexID(v), w, p); err != nil {
			return fmt.Errorf("bigraph: line %d: %w", lineNo, err)
		}
		blk.lines.add(len(blk.edges), lineNo)
		blk.edges = append(blk.edges, Edge{U: VertexID(u), V: VertexID(v), W: w, P: p})
	}
	return nil
}

// cutLine returns the first line of data, without its newline and a
// carriage return before it, and the lines after it.
func cutLine(data []byte) (line, rest []byte) {
	line = data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
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
