package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// Checkpoint is the resumable state of a cancelled sampling run. Because
// every trial's random stream is derived from (Seed, trial index) — and
// every Karp-Luby candidate's from (Seed, candidate index) — the
// accumulated counts after T completed units plus the next index are all
// the state a run owns: resuming from a checkpoint and finishing produces
// a Result bit-identical to an uninterrupted run with the same options.
//
// A cancelled run attaches its Checkpoint to the partial Result; encode it
// with Save (or Encode) and hand it back via the options' Resume field (or
// the CLI's -resume flag) to continue.
type Checkpoint struct {
	// Method is the algorithm that produced the state: "mc-vp", "os",
	// "ols" or "ols-kl". Resume refuses a mismatched method.
	Method string
	// Seed is the run's seed; resuming under a different seed would break
	// the prefix property, so it must match.
	Seed uint64
	// Trials is the run's target sampling trial count N.
	Trials int
	// PrepTrials is the OLS preparing-phase target (OLS methods only).
	PrepTrials int
	// Mu is the Karp-Luby Equation 8 target probability (ols-kl only); it
	// sizes per-candidate trial counts, so it must match on resume.
	Mu float64
	// GraphCRC fingerprints the graph the run was computed on (see
	// bigraph.Graph.Checksum). Resume refuses a different graph.
	GraphCRC uint32
	// Prepare marks a checkpoint cut during the OLS preparing phase; Done
	// then counts preparing trials and Counts holds the interim candidate
	// hit tallies.
	Prepare bool
	// Done is the completed prefix: sampling trials for mc-vp/os/ols (or
	// preparing trials when Prepare is set), and fully priced candidates
	// for ols-kl.
	Done int

	// Payload is the completed prefix's tally: Counts for mc-vp, os and
	// the OLS preparing phase; CandCounts, indexed like the deterministic
	// candidate list, for ols; and for ols-kl CandProbs and CandTrials,
	// whose entries past the first Done candidates are zero until priced.
	Payload
}

// ButterflyCount is one accumulator entry: a butterfly, the number of
// completed trials that reported it maximum, and its backbone weight.
type ButterflyCount struct {
	B      butterfly.Butterfly
	Count  int64
	Weight float64
}

// Checkpoint serialization:
//
//	magic   [8]byte  "MPMBCKP1"
//	version uint32   little endian (currently 1)
//	method  uint16 length + bytes
//	seed    uint64
//	trials  uint64
//	prep    uint64
//	mu      float64
//	crcG    uint32   graph fingerprint
//	flags   uint8    bit 0: prepare phase
//	done    uint64
//	kind    uint8    the payload's ExecKind: 1 = Counts (ExecOS),
//	                 2 = CandCounts (ExecOptimized), 3 = CandProbs/CandTrials
//	                 (ExecKarpLuby)
//	n       uint64   entry count, then n records (layout per kind)
//	crc     uint32   IEEE CRC-32 over everything above
//
// kind, n and the records are the payload section, which EncodePayload
// writes with a CRC-32 of its own.
const (
	ckptVersion = 1

	// maxCheckpointEntries bounds decode-time allocation; a corrupted
	// header must not be able to demand gigabytes.
	maxCheckpointEntries = 1 << 26
)

var ckptMagic = [8]byte{'M', 'P', 'M', 'B', 'C', 'K', 'P', '1'}

// recordSize is the byte size of a payload record of each kind.
var recordSize = map[ExecKind]int{ExecOS: 32, ExecOptimized: 8, ExecKarpLuby: 16}

// payloadKind returns the kind of state a method's checkpoint carries.
func (c *Checkpoint) payloadKind() ExecKind {
	if c.Prepare {
		return ExecOS
	}
	switch c.Method {
	case "mc-vp", "os":
		return ExecOS
	case "ols":
		return ExecOptimized
	case "ols-kl":
		return ExecKarpLuby
	}
	return 0
}

// EncodePayload returns kind's fields of p as a checkpoint's payload
// section followed by its CRC-32: the byte form of a trial range's tally.
// kind must be one of the three ExecKinds.
func EncodePayload(kind ExecKind, p Payload) []byte {
	var buf bytes.Buffer
	if err := writePayload(&buf, kind, &p); err != nil {
		panic(err) // a bytes.Buffer does not fail, so kind is unknown
	}
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.ChecksumIEEE(buf.Bytes()))
}

// DecodePayload reads back what EncodePayload wrote, checking its CRC-32
// and layout; Payload.Check judges the entries. It allocates no more
// entries than b holds records.
func DecodePayload(b []byte) (ExecKind, Payload, error) {
	if len(b) < 9+4 { // kind, count and CRC
		return 0, Payload{}, fmt.Errorf("core: payload of %d bytes is shorter than its header", len(b))
	}
	body := b[:len(b)-4]
	if got, want := binary.LittleEndian.Uint32(b[len(body):]), crc32.ChecksumIEEE(body); got != want {
		return 0, Payload{}, fmt.Errorf("core: payload checksum mismatch: trailer %08x, payload %08x", got, want)
	}
	r := bytes.NewReader(body)
	kind, p, err := readPayload(r, (len(body)-9)/max(recordSize[ExecKind(body[0])], 1))
	if err == nil && r.Len() > 0 {
		err = fmt.Errorf("%d bytes after the payload's last record", r.Len())
	}
	if err != nil {
		return 0, Payload{}, fmt.Errorf("core: %w", err)
	}
	return kind, p, nil
}

// writePayload writes kind's fields of p to w as a payload section.
func writePayload(w io.Writer, kind ExecKind, p *Payload) error {
	var n int
	switch kind {
	case ExecOS:
		n = len(p.Counts)
	case ExecOptimized:
		n = len(p.CandCounts)
	case ExecKarpLuby:
		n = len(p.CandProbs)
	default:
		return fmt.Errorf("core: payload of unknown kind %v", kind)
	}
	le := binary.LittleEndian
	rec := le.AppendUint64(append(make([]byte, 0, 32), byte(kind)), uint64(n))
	if _, err := w.Write(rec); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		switch rec = rec[:0]; kind {
		case ExecOS:
			e := &p.Counts[i]
			rec = le.AppendUint32(le.AppendUint32(le.AppendUint32(le.AppendUint32(rec, e.B.U1), e.B.U2), e.B.V1), e.B.V2)
			rec = le.AppendUint64(le.AppendUint64(rec, uint64(e.Count)), math.Float64bits(e.Weight))
		case ExecOptimized:
			rec = le.AppendUint64(rec, uint64(p.CandCounts[i]))
		case ExecKarpLuby:
			rec = le.AppendUint64(le.AppendUint64(rec, math.Float64bits(p.CandProbs[i])), uint64(p.CandTrials[i]))
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// readPayload reads a payload section from r, refusing one that declares
// more than limit records. Its slices grow as records arrive, from room
// for at most 4,096, so a count that overstates the records costs no
// more than the records read.
func readPayload(r io.Reader, limit int) (ExecKind, Payload, error) {
	var rec [32]byte
	if _, err := io.ReadFull(r, rec[:9]); err != nil {
		return 0, Payload{}, fmt.Errorf("truncated payload: %w", err)
	}
	kind, n := ExecKind(rec[0]), binary.LittleEndian.Uint64(rec[1:9])
	size := recordSize[kind]
	switch {
	case size == 0:
		return 0, Payload{}, fmt.Errorf("payload of unknown kind %d", kind)
	case n > uint64(limit):
		return 0, Payload{}, fmt.Errorf("payload declares %d records (limit %d)", n, limit)
	}
	var p Payload
	room := int(min(n, 4096))
	switch kind {
	case ExecOS:
		p.Counts = make([]ButterflyCount, 0, room)
	case ExecOptimized:
		p.CandCounts = make([]int64, 0, room)
	case ExecKarpLuby:
		p.CandProbs, p.CandTrials = make([]float64, 0, room), make([]int64, 0, room)
	}
	le := binary.LittleEndian
	for i := uint64(0); i < n; i++ {
		b := rec[:size]
		if _, err := io.ReadFull(r, b); err != nil {
			return 0, Payload{}, fmt.Errorf("truncated payload: %w", err)
		}
		switch kind {
		case ExecOS:
			p.Counts = append(p.Counts, ButterflyCount{
				B:     butterfly.Butterfly{U1: le.Uint32(b), U2: le.Uint32(b[4:]), V1: le.Uint32(b[8:]), V2: le.Uint32(b[12:])},
				Count: int64(le.Uint64(b[16:])), Weight: math.Float64frombits(le.Uint64(b[24:])),
			})
		case ExecOptimized:
			p.CandCounts = append(p.CandCounts, int64(le.Uint64(b)))
		case ExecKarpLuby:
			p.CandProbs = append(p.CandProbs, math.Float64frombits(le.Uint64(b)))
			p.CandTrials = append(p.CandTrials, int64(le.Uint64(b[8:])))
		}
	}
	return kind, p, nil
}

// Encode writes the checkpoint in its versioned, checksummed binary form.
func (c *Checkpoint) Encode(w io.Writer) error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: refusing to encode invalid checkpoint: %w", err)
	}
	le := binary.LittleEndian
	head := le.AppendUint32(append([]byte(nil), ckptMagic[:]...), ckptVersion)
	head = append(le.AppendUint16(head, uint16(len(c.Method))), c.Method...)
	for _, v := range []uint64{c.Seed, uint64(c.Trials), uint64(c.PrepTrials), math.Float64bits(c.Mu)} {
		head = le.AppendUint64(head, v)
	}
	var flags byte
	if c.Prepare {
		flags |= 1
	}
	head = le.AppendUint64(append(le.AppendUint32(head, c.GraphCRC), flags), uint64(c.Done))
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := bw.Write(head); err != nil {
		return err
	}
	if err := writePayload(bw, c.payloadKind(), &c.Payload); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(le.AppendUint32(nil, crc.Sum32()))
	return err
}

// DecodeCheckpoint parses and validates a checkpoint. Truncated,
// corrupted, or version-skewed input returns an error; it never panics
// and never yields a structurally inconsistent checkpoint.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	crc := crc32.NewIEEE()
	// Everything except the trailing checksum is read through the tee, so
	// the digest covers exactly the consumed bytes.
	tee := io.TeeReader(br, crc)
	le := binary.LittleEndian
	head := make([]byte, 14) // magic, version and method length
	if _, err := io.ReadFull(tee, head); err != nil {
		return nil, fmt.Errorf("core: truncated checkpoint: %w", err)
	}
	if magic := [8]byte(head); magic != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	if version := le.Uint32(head[8:]); version != ckptVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads %d)", version, ckptVersion)
	}
	mlen := int(le.Uint16(head[12:]))
	if mlen > 32 {
		return nil, fmt.Errorf("core: checkpoint method name of %d bytes", mlen)
	}
	head = make([]byte, mlen+45) // the method, then seed to done
	if _, err := io.ReadFull(tee, head); err != nil {
		return nil, fmt.Errorf("core: truncated checkpoint: %w", err)
	}
	c := &Checkpoint{Method: string(head[:mlen])}
	f := head[mlen:]
	trials, prep, done := le.Uint64(f[8:]), le.Uint64(f[16:]), le.Uint64(f[37:])
	const maxInt = uint64(math.MaxInt64)
	if trials > maxInt || prep > maxInt || done > maxInt {
		return nil, fmt.Errorf("core: checkpoint counters overflow int")
	}
	c.Seed, c.Trials, c.PrepTrials, c.Done = le.Uint64(f), int(trials), int(prep), int(done)
	c.Mu, c.GraphCRC = math.Float64frombits(le.Uint64(f[24:])), le.Uint32(f[32:])
	if f[36]&^1 != 0 {
		return nil, fmt.Errorf("core: unknown checkpoint flags %#x", f[36])
	}
	c.Prepare = f[36]&1 != 0
	kind, p, err := readPayload(tee, maxCheckpointEntries)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if kind != c.payloadKind() {
		return nil, fmt.Errorf("core: checkpoint payload kind %d does not match method %q", kind, c.Method)
	}
	c.Payload = p
	want := crc.Sum32() // CRC of everything consumed so far
	if _, err := io.ReadFull(br, head[:4]); err != nil {
		return nil, fmt.Errorf("core: truncated checkpoint checksum: %w", err)
	}
	if got := le.Uint32(head); got != want {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch: file %08x, payload %08x", got, want)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("core: inconsistent checkpoint: %w", err)
	}
	return c, nil
}

// validate enforces the structural invariants every checkpoint must hold,
// independent of any particular graph or options.
func (c *Checkpoint) validate() error {
	switch c.Method {
	case "mc-vp", "os", "ols", "ols-kl":
	default:
		return fmt.Errorf("unknown method %q", c.Method)
	}
	if c.Prepare && c.Method != "ols" && c.Method != "ols-kl" {
		return fmt.Errorf("prepare-phase checkpoint for non-OLS method %q", c.Method)
	}
	if c.Trials < 0 || c.PrepTrials < 0 || c.Done < 0 {
		return fmt.Errorf("negative counters (Trials=%d PrepTrials=%d Done=%d)", c.Trials, c.PrepTrials, c.Done)
	}
	if c.Mu < 0 || c.Mu > 1 || math.IsNaN(c.Mu) {
		return fmt.Errorf("Mu=%v outside [0,1]", c.Mu)
	}
	limit := c.Trials
	if c.Prepare {
		limit = c.PrepTrials
	}
	kind := c.payloadKind()
	if kind != ExecKarpLuby && c.Done > limit {
		return fmt.Errorf("Done=%d exceeds target %d", c.Done, limit)
	}
	return c.Payload.Check(kind, c.Done, -1, false)
}

// resumeCheck verifies the checkpoint belongs to the run whose header is
// run: same method, seed, targets, Karp-Luby sizing, and graph. A nil
// checkpoint resumes nothing, so it matches every run.
func (c *Checkpoint) resumeCheck(run Checkpoint, g *bigraph.Graph) error {
	if c == nil {
		return nil
	}
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: invalid resume checkpoint: %w", err)
	}
	if c.Method != run.Method {
		return fmt.Errorf("core: checkpoint is for method %q, resuming %q", c.Method, run.Method)
	}
	if c.Seed != run.Seed {
		return fmt.Errorf("core: checkpoint seed %d does not match run seed %d", c.Seed, run.Seed)
	}
	if c.Trials != run.Trials {
		return fmt.Errorf("core: checkpoint targets %d trials, run wants %d", c.Trials, run.Trials)
	}
	if c.PrepTrials != run.PrepTrials {
		return fmt.Errorf("core: checkpoint targets %d preparing trials, run wants %d", c.PrepTrials, run.PrepTrials)
	}
	if run.Method == "ols-kl" && c.Mu != run.Mu {
		return fmt.Errorf("core: checkpoint Mu=%v does not match run Mu=%v", c.Mu, run.Mu)
	}
	if got := g.Checksum(); c.GraphCRC != got {
		return fmt.Errorf("core: checkpoint graph fingerprint %08x does not match graph %08x", c.GraphCRC, got)
	}
	return nil
}

// resumeState returns the state job starts from: the completed prefix ck
// holds, which the caller has matched to the run with resumeCheck, or the
// empty state when ck is nil. It is the one way a checkpoint becomes run
// state, as checkpoint is the one way back.
func resumeState(job *ExecJob, ck *Checkpoint) (*ExecResult, error) {
	x, err := NewExecState(job)
	if err != nil || ck == nil {
		return x, err
	}
	if got, want := len(ck.CandCounts)+len(ck.CandProbs), len(x.CandCounts)+len(x.CandProbs); got != want {
		return nil, fmt.Errorf("core: checkpoint has %d candidates, the run has %d (options mismatch?)", got, want)
	}
	x.Fold(job.Kind, &ExecResult{Done: ck.Done, Payload: ck.Payload})
	return x, nil
}

// checkpoint cuts the checkpoint of x, the completed prefix of the run
// whose header is run, on graph g: the run's identity over x's payload in
// portable form.
func (x *ExecResult) checkpoint(run Checkpoint, g *bigraph.Graph) *Checkpoint {
	run.GraphCRC, run.Done, run.Payload = g.Checksum(), x.Done, x.Export()
	return &run
}

// SaveCheckpoint writes the checkpoint to the named file, atomically: the
// data goes to a temporary file in the same directory which is renamed
// over path only after a successful write, so a crash mid-save never
// leaves a truncated checkpoint behind.
func SaveCheckpoint(path string, c *Checkpoint) error { return saveCheckpoint(osFS{}, path, c) }

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) { return loadCheckpoint(osFS{}, path) }
