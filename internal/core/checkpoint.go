package core

import (
	"bufio"
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

	// Counts is the trial-hit accumulator of mc-vp, os, and the OLS
	// preparing phase: how many completed trials reported each butterfly
	// as a maximum, in canonical butterfly order.
	Counts []ButterflyCount
	// CandCounts is the optimized estimator's accumulator: per-candidate
	// hit counts indexed like the (deterministic) candidate list.
	CandCounts []int64
	// CandProbs / CandTrials are the Karp-Luby accumulator: estimates and
	// executed trial counts for the first Done candidates (later entries
	// are zero until priced).
	CandProbs  []float64
	CandTrials []int64
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
const (
	ckptVersion = 1

	// maxCheckpointEntries bounds decode-time allocation; a corrupted
	// header must not be able to demand gigabytes.
	maxCheckpointEntries = 1 << 26
)

var ckptMagic = [8]byte{'M', 'P', 'M', 'B', 'C', 'K', 'P', '1'}

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

// payload views the checkpoint's payload section as a Payload.
func (c *Checkpoint) payload() Payload {
	return Payload{Counts: c.Counts, CandCounts: c.CandCounts, CandProbs: c.CandProbs, CandTrials: c.CandTrials}
}

// Encode writes the checkpoint in its versioned, checksummed binary form.
func (c *Checkpoint) Encode(w io.Writer) error {
	if err := c.validate(); err != nil {
		return fmt.Errorf("core: refusing to encode invalid checkpoint: %w", err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	var scratch [8]byte
	writeU := func(v uint64, n int) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	if err := writeU(ckptVersion, 4); err != nil {
		return err
	}
	if err := writeU(uint64(len(c.Method)), 2); err != nil {
		return err
	}
	if _, err := bw.Write([]byte(c.Method)); err != nil {
		return err
	}
	for _, v := range []uint64{c.Seed, uint64(c.Trials), uint64(c.PrepTrials), math.Float64bits(c.Mu)} {
		if err := writeU(v, 8); err != nil {
			return err
		}
	}
	if err := writeU(uint64(c.GraphCRC), 4); err != nil {
		return err
	}
	var flags uint64
	if c.Prepare {
		flags |= 1
	}
	if err := writeU(flags, 1); err != nil {
		return err
	}
	if err := writeU(uint64(c.Done), 8); err != nil {
		return err
	}
	kind := c.payloadKind()
	if err := writeU(uint64(kind), 1); err != nil {
		return err
	}
	switch kind {
	case ExecOS:
		if err := writeU(uint64(len(c.Counts)), 8); err != nil {
			return err
		}
		for _, e := range c.Counts {
			for _, v := range []uint64{uint64(e.B.U1), uint64(e.B.U2), uint64(e.B.V1), uint64(e.B.V2)} {
				if err := writeU(v, 4); err != nil {
					return err
				}
			}
			if err := writeU(uint64(e.Count), 8); err != nil {
				return err
			}
			if err := writeU(math.Float64bits(e.Weight), 8); err != nil {
				return err
			}
		}
	case ExecOptimized:
		if err := writeU(uint64(len(c.CandCounts)), 8); err != nil {
			return err
		}
		for _, v := range c.CandCounts {
			if err := writeU(uint64(v), 8); err != nil {
				return err
			}
		}
	case ExecKarpLuby:
		if err := writeU(uint64(len(c.CandProbs)), 8); err != nil {
			return err
		}
		for i, p := range c.CandProbs {
			if err := writeU(math.Float64bits(p), 8); err != nil {
				return err
			}
			if err := writeU(uint64(c.CandTrials[i]), 8); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("core: checkpoint for unknown method %q", c.Method)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
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
	var scratch [8]byte
	readU := func(n int) (uint64, error) {
		if _, err := io.ReadFull(tee, scratch[:n]); err != nil {
			return 0, fmt.Errorf("core: truncated checkpoint: %w", err)
		}
		var full [8]byte
		copy(full[:], scratch[:n])
		return binary.LittleEndian.Uint64(full[:]), nil
	}

	var magic [8]byte
	if _, err := io.ReadFull(tee, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	version, err := readU(4)
	if err != nil {
		return nil, err
	}
	if version != ckptVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads %d)", version, ckptVersion)
	}
	mlen, err := readU(2)
	if err != nil {
		return nil, err
	}
	if mlen > 32 {
		return nil, fmt.Errorf("core: checkpoint method name of %d bytes", mlen)
	}
	mbuf := make([]byte, mlen)
	if _, err := io.ReadFull(tee, mbuf); err != nil {
		return nil, fmt.Errorf("core: truncated checkpoint: %w", err)
	}
	c := &Checkpoint{Method: string(mbuf)}
	if c.Seed, err = readU(8); err != nil {
		return nil, err
	}
	trials, err := readU(8)
	if err != nil {
		return nil, err
	}
	prep, err := readU(8)
	if err != nil {
		return nil, err
	}
	muBits, err := readU(8)
	if err != nil {
		return nil, err
	}
	crcG, err := readU(4)
	if err != nil {
		return nil, err
	}
	flags, err := readU(1)
	if err != nil {
		return nil, err
	}
	done, err := readU(8)
	if err != nil {
		return nil, err
	}
	const maxInt = uint64(math.MaxInt64)
	if trials > maxInt || prep > maxInt || done > maxInt {
		return nil, fmt.Errorf("core: checkpoint counters overflow int")
	}
	c.Trials, c.PrepTrials, c.Done = int(trials), int(prep), int(done)
	c.Mu = math.Float64frombits(muBits)
	c.GraphCRC = uint32(crcG)
	if flags&^uint64(1) != 0 {
		return nil, fmt.Errorf("core: unknown checkpoint flags %#x", flags)
	}
	c.Prepare = flags&1 != 0

	kind, err := readU(1)
	if err != nil {
		return nil, err
	}
	if ExecKind(kind) != c.payloadKind() {
		return nil, fmt.Errorf("core: checkpoint payload kind %d does not match method %q", kind, c.Method)
	}
	n, err := readU(8)
	if err != nil {
		return nil, err
	}
	if n > maxCheckpointEntries {
		return nil, fmt.Errorf("core: checkpoint declares %d entries (limit %d)", n, maxCheckpointEntries)
	}
	switch ExecKind(kind) {
	case ExecOS:
		c.Counts = make([]ButterflyCount, 0, n)
		for i := uint64(0); i < n; i++ {
			var vs [4]uint64
			for k := range vs {
				if vs[k], err = readU(4); err != nil {
					return nil, err
				}
			}
			cnt, err := readU(8)
			if err != nil {
				return nil, err
			}
			wBits, err := readU(8)
			if err != nil {
				return nil, err
			}
			c.Counts = append(c.Counts, ButterflyCount{
				B: butterfly.Butterfly{
					U1: bigraph.VertexID(vs[0]), U2: bigraph.VertexID(vs[1]),
					V1: bigraph.VertexID(vs[2]), V2: bigraph.VertexID(vs[3]),
				},
				Count:  int64(cnt),
				Weight: math.Float64frombits(wBits),
			})
		}
	case ExecOptimized:
		c.CandCounts = make([]int64, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := readU(8)
			if err != nil {
				return nil, err
			}
			c.CandCounts = append(c.CandCounts, int64(v))
		}
	case ExecKarpLuby:
		c.CandProbs = make([]float64, 0, n)
		c.CandTrials = make([]int64, 0, n)
		for i := uint64(0); i < n; i++ {
			pBits, err := readU(8)
			if err != nil {
				return nil, err
			}
			t, err := readU(8)
			if err != nil {
				return nil, err
			}
			c.CandProbs = append(c.CandProbs, math.Float64frombits(pBits))
			c.CandTrials = append(c.CandTrials, int64(t))
		}
	}
	var tail [4]byte
	want := crc.Sum32() // CRC of everything consumed so far
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("core: truncated checkpoint checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
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
	return c.payload().Check(kind, c.Done, -1, false)
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
	p := ck.payload()
	if got, want := len(p.CandCounts)+len(p.CandProbs), len(x.CandCounts)+len(x.CandProbs); got != want {
		return nil, fmt.Errorf("core: checkpoint has %d candidates, the run has %d (options mismatch?)", got, want)
	}
	x.Fold(job.Kind, &ExecResult{Done: ck.Done, Payload: p})
	return x, nil
}

// checkpoint cuts the checkpoint of x, the completed prefix of the run
// whose header is run, on graph g: the run's identity over x's payload in
// portable form.
func (x *ExecResult) checkpoint(run Checkpoint, g *bigraph.Graph) *Checkpoint {
	p := x.Export()
	run.GraphCRC, run.Done = g.Checksum(), x.Done
	run.Counts, run.CandCounts, run.CandProbs, run.CandTrials = p.Counts, p.CandCounts, p.CandProbs, p.CandTrials
	return &run
}

// SaveCheckpoint writes the checkpoint to the named file, atomically: the
// data goes to a temporary file in the same directory which is renamed
// over path only after a successful write, so a crash mid-save never
// leaves a truncated checkpoint behind.
func SaveCheckpoint(path string, c *Checkpoint) error { return saveCheckpoint(osFS{}, path, c) }

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) { return loadCheckpoint(osFS{}, path) }
