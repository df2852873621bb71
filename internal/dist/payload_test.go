package dist

import (
	"encoding/json"
	"errors"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// TestMalformedOSPayloadRejected sends a 16-trial OS job's only span
// with a payload that lists B(0,1|0,1) twice at count 16 and the
// degenerate B(1,1|2,0) at count 3, and each fault on its own. Merged,
// it would credit B(0,1|0,1) in 32 of 16 trials, an estimate of 2. The
// wire decoder and the coordinator's merge (which journal replay and
// the in-process fallback reach without the decoder) must both refuse
// it, and the job must merge nothing.
func TestMalformedOSPayloadRejected(t *testing.T) {
	g := meshGraph(t)
	b := butterfly.Butterfly{U1: 0, U2: 1, V1: 0, V2: 1}
	degenerate := butterfly.Butterfly{U1: 1, U2: 1, V1: 2, V2: 0}
	later := butterfly.Butterfly{U1: 0, U2: 2, V1: 0, V2: 1}
	cases := map[string][]core.ButterflyCount{
		"reported":   {{B: b, Count: 16, Weight: 4}, {B: b, Count: 16, Weight: 4}, {B: degenerate, Count: 3, Weight: 4}},
		"duplicate":  {{B: b, Count: 16, Weight: 4}, {B: b, Count: 16, Weight: 4}},
		"degenerate": {{B: degenerate, Count: 3, Weight: 4}},
		"unordered":  {{B: later, Count: 1, Weight: 4}, {B: b, Count: 1, Weight: 4}},
	}
	for name, counts := range cases {
		t.Run(name, func(t *testing.T) {
			coord := NewCoordinator()
			coord.LeaseUnits = 16
			id, _, err := coord.register(&core.ExecJob{
				Kind: core.ExecOS, Graph: g, Seed: 7, Units: 16,
				Spec: core.ExecSpec{Method: "os", Seed: 7, Trials: 16},
			})
			if err != nil {
				t.Fatal(err)
			}
			msg := &LeaseComplete{V: Version, Worker: "w", Job: id, Lease: 1, Lo: 1, Hi: 16,
				Payload: RangePayload{Counts: counts}}
			raw, err := json.Marshal(msg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeLeaseComplete(raw); !errors.Is(err, ErrBadPayload) {
				t.Errorf("decoder: err = %v, want ErrBadPayload", err)
			}
			if _, err := coord.complete(msg); !errors.Is(err, ErrBadPayload) {
				t.Errorf("merge: err = %v, want ErrBadPayload", err)
			}
			res, err := coord.collect(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Done != 0 || len(res.CountsSnapshot()) != 0 {
				t.Fatalf("job merged the malformed span: Done=%d counts=%v", res.Done, res.CountsSnapshot())
			}
		})
	}
}
