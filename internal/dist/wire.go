// Package dist fans the engine's independent trial units out across
// processes: a coordinator leases contiguous trial ranges to workers
// over a small HTTP protocol, workers execute the ranges with the
// in-process LocalExecutor and report additive range payloads back, and
// the coordinator merges accepted ranges in prefix order into exactly
// the state the core runners expect from any TrialExecutor. Messages are
// JSON, and a range's payload inside one is in core's payload codec, the
// byte form a checkpoint embeds; the graph streams from the job in
// bigraph's binary form.
//
// The whole design leans on one engine property: every trial unit's
// random stream is derived from (phase seed, unit index), so WHERE a
// range runs cannot change a single result bit. That makes the
// fault-tolerance story simple arithmetic instead of consensus:
//
//   - Leases carry a TTL. A worker that dies mid-lease simply never
//     completes it; the coordinator reissues the expired range to the
//     next worker, which recomputes the identical payload.
//   - Range completion is idempotent. Ranges are validated against the
//     job's fixed lease arithmetic, and a duplicate (or late, or
//     reordered) completion of an already-accepted range is acknowledged
//     and dropped — merging is keyed by range, not by message.
//   - Work stealing is duplicate granting. When no fresh or freed work
//     remains, outstanding ranges are granted again to idle workers;
//     whichever copy completes first wins, the rest are dropped as
//     duplicates.
//
// Merging in prefix order with core's own fold keeps the coordinator's
// aggregate equal, at every instant, to a local run of the same trials —
// so a mid-run interruption yields the engine's standard resumable
// checkpoint, and terminal counters are exact.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// Version is the wire protocol version. Every message carries it; a
// mismatch is rejected with ErrVersionSkew before anything is trusted.
const Version = 3

// maxMessageBytes bounds a decoded protocol message. Payload sizes are
// bounded by candidate-set width and distinct-butterfly counts, both of
// which sit far below this in practice; the bound exists so a confused
// (or malicious) peer cannot balloon coordinator memory.
const maxMessageBytes = 64 << 20

// Typed protocol errors. Handlers wrap them with context; callers and
// tests match with errors.Is.
var (
	// ErrVersionSkew rejects a message whose version field does not match
	// this binary's Version.
	ErrVersionSkew = errors.New("dist: protocol version skew")
	// ErrBadRange rejects a lease range that the coordinator's fixed
	// lease arithmetic can never have issued (inverted, out of bounds,
	// misaligned, or overlapping a differently-shaped range).
	ErrBadRange = errors.New("dist: bad lease range")
	// ErrBadPayload rejects a range payload whose shape does not match
	// the job's kind and range width.
	ErrBadPayload = errors.New("dist: bad range payload")
)

// JobSpec is what the coordinator hands to workers: every input a worker
// needs to rebuild the job locally and execute any leased range
// bit-identically. The graph and, for the estimator kinds, the candidate
// set are fetched from the coordinator and checked against the
// checksums named here.
type JobSpec struct {
	V    int    `json:"v"`
	Job  uint64 `json:"job"`
	Kind uint8  `json:"kind"` // core.ExecKind

	// PhaseSeed is the seed the leased units' streams derive from; Units
	// is the job's last unit.
	PhaseSeed uint64 `json:"phase_seed"`
	Units     int    `json:"units"`

	// Start is the job's completed prefix at registration (a resumed
	// run); leases cover Start+1..Units and are aligned to Start.
	Start int `json:"start,omitempty"`

	// Karp-Luby sizing knobs (ExecKarpLuby only).
	KLBaseTrials int     `json:"kl_base_trials,omitempty"`
	KLMu         float64 `json:"kl_mu,omitempty"`

	// GraphCRC fingerprints the graph; workers verify the fetched bytes
	// against it before executing anything.
	GraphCRC uint32 `json:"graph_crc"`
	// CandCRC is the CRC-32 of the encoded candidate set of an
	// ExecOptimized or ExecKarpLuby job (core.Candidates.Encode); workers
	// verify the fetched bytes against it and cache sets by it.
	CandCRC uint32 `json:"cand_crc,omitempty"`
	// LeaseUnits is the job's fixed lease width; all range validation is
	// arithmetic over it.
	LeaseUnits int `json:"lease_units"`
}

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
}

// LeaseReply statuses.
const (
	// LeaseGranted carries a job spec and a range to execute.
	LeaseGranted = "lease"
	// LeaseWait means no range is currently grantable (no active job, or
	// every range is leased out); poll again after WaitMs.
	LeaseWait = "wait"
)

// LeaseReply answers a LeaseRequest.
type LeaseReply struct {
	V      int      `json:"v"`
	Status string   `json:"status"`
	Job    *JobSpec `json:"job,omitempty"`
	Lease  uint64   `json:"lease,omitempty"`
	Lo     int      `json:"lo,omitempty"`
	Hi     int      `json:"hi,omitempty"`
	WaitMs int      `json:"wait_ms,omitempty"`
}

// Counters are the deterministic telemetry deltas of one executed
// range — exact functions of which trials ran, so summing accepted
// ranges' counters in prefix order reproduces a local run's terminal
// counters exactly. Time-based telemetry (latency histograms) is
// deliberately absent: it is not a function of the trial set.
type Counters struct {
	Trials       int64 `json:"trials"`
	TrialHits    int64 `json:"trial_hits"`
	EdgesScanned int64 `json:"edges_scanned"`
	EdgesPruned  int64 `json:"edges_pruned"`
	CandScanned  int64 `json:"cand_scanned"`
	CandPruned   int64 `json:"cand_pruned"`
}

// LeaseComplete reports an executed range. Lo/Hi are repeated from the
// lease (and validated against the job's lease arithmetic) so that a
// reissued lease's late original completion still merges correctly.
type LeaseComplete struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	Job    uint64 `json:"job"`
	Lease  uint64 `json:"lease"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	// Payload is core.EncodePayload of the range's state, base64 in the
	// JSON message: a checkpoint's payload section with its own CRC-32,
	// which the journal's completion records store as the worker sent it.
	Payload  []byte   `json:"payload"`
	Counters Counters `json:"counters"`
}

// CompleteReply acknowledges a LeaseComplete. Accepted is false for
// duplicates and for completions of vanished jobs — both are normal
// protocol outcomes, not errors. JobDone tells the worker the job needs
// no further leases.
type CompleteReply struct {
	V        int  `json:"v"`
	Accepted bool `json:"accepted"`
	JobDone  bool `json:"job_done"`
}

// DecodeLeaseComplete parses and structurally validates a LeaseComplete:
// protocol version, range sanity, and the payload by core's payload codec
// and check as a span of whichever kind it carries. Job-contextual
// validation — lease-arithmetic alignment, the job's kind, candidate
// widths — happens in the coordinator, which knows the job.
func DecodeLeaseComplete(data []byte) (*LeaseComplete, error) {
	if len(data) > maxMessageBytes {
		return nil, fmt.Errorf("%w: message of %d bytes exceeds limit", ErrBadPayload, len(data))
	}
	var msg LeaseComplete
	err := json.Unmarshal(data, &msg)
	// Unmarshal stores every field it can before it reports one of the
	// wrong type, so an older message's version is read all the same.
	var typeErr *json.UnmarshalTypeError
	if (err == nil || errors.As(err, &typeErr)) && msg.V != Version {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrVersionSkew, msg.V, Version)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if msg.Lo < 1 || msg.Hi < msg.Lo {
		return nil, fmt.Errorf("%w: range %d..%d", ErrBadRange, msg.Lo, msg.Hi)
	}
	if _, err := msg.payload(0, -1); err != nil {
		return nil, err
	}
	for _, c := range msg.Counters.slice() {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative counter", ErrBadPayload)
		}
	}
	return &msg, nil
}

// payload decodes the message's payload and checks it as the tally of its
// range in a kind job with cands candidates (kind 0: any kind; cands < 0:
// any width).
func (msg *LeaseComplete) payload(kind core.ExecKind, cands int) (core.Payload, error) {
	got, p, err := core.DecodePayload(msg.Payload)
	if err == nil && kind != 0 && got != kind {
		err = fmt.Errorf("%v payload for a %v job", got, kind)
	}
	if err == nil {
		err = p.Check(got, msg.Hi-msg.Lo+1, cands, true)
	}
	if err != nil {
		return core.Payload{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return p, nil
}

func (c Counters) slice() [6]int64 {
	return [6]int64{c.Trials, c.TrialHits, c.EdgesScanned, c.EdgesPruned, c.CandScanned, c.CandPruned}
}

// readAll reads a message body under the size bound.
func readAll(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxMessageBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxMessageBytes {
		return nil, fmt.Errorf("%w: message exceeds %d bytes", ErrBadPayload, maxMessageBytes)
	}
	return data, nil
}

// readMessage decodes a JSON message from a size-bounded reader.
func readMessage(r io.Reader, v any) error {
	data, err := readAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// encodeJSON marshals a message under the size bound.
func encodeJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(data) > maxMessageBytes {
		return nil, fmt.Errorf("%w: message exceeds %d bytes", ErrBadPayload, maxMessageBytes)
	}
	return data, nil
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
