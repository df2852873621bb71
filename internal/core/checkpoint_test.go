package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// sampleCheckpoints returns one valid checkpoint per payload kind.
func sampleCheckpoints() map[string]*Checkpoint {
	counts := []ButterflyCount{
		{B: butterfly.New(0, 1, 0, 1), Count: 12, Weight: 10},
		{B: butterfly.New(0, 1, 0, 2), Count: 3, Weight: 7},
		{B: butterfly.New(0, 1, 1, 2), Count: 7, Weight: 7},
	}
	return map[string]*Checkpoint{
		"mc-vp": {
			Method: "mc-vp", Seed: 42, Trials: 100, Done: 12,
			GraphCRC: 0xdeadbeef, Payload: Payload{Counts: counts},
		},
		"os": {
			Method: "os", Seed: 7, Trials: 5000, Done: 4999,
			GraphCRC: 1, Payload: Payload{Counts: counts[:1]},
		},
		"ols-prepare": {
			Method: "ols", Seed: 9, Trials: 20000, PrepTrials: 100,
			Prepare: true, Done: 55, GraphCRC: 3, Payload: Payload{Counts: counts},
		},
		"ols": {
			Method: "ols", Seed: 9, Trials: 200, PrepTrials: 100,
			Done: 150, GraphCRC: 3, Payload: Payload{CandCounts: []int64{150, 0, 75}},
		},
		"ols-kl": {
			Method: "ols-kl", Seed: 9, Trials: 200, PrepTrials: 100, Mu: 0.05,
			Done: 2, GraphCRC: 3,
			Payload: Payload{
				CandProbs:  []float64{0.25, 0.125, 0},
				CandTrials: []int64{200, 400, 0},
			},
		},
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	for name, ck := range sampleCheckpoints() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, ck) {
				t.Fatalf("roundtrip mismatch:\ngot  %+v\nwant %+v", got, ck)
			}
		})
	}
}

// TestPayloadCodec: EncodePayload round-trips each kind's payload through
// DecodePayload, and the decoder refuses every truncation, a flipped bit,
// a trailing byte, an unknown kind, and a count of more records than the
// bytes hold, the last three under a valid CRC.
func TestPayloadCodec(t *testing.T) {
	resum := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	}
	for name, ck := range sampleCheckpoints() {
		kind := ck.payloadKind()
		b := EncodePayload(kind, ck.Payload)
		got, p, err := DecodePayload(b)
		if err != nil || got != kind || !reflect.DeepEqual(p, ck.Payload) {
			t.Fatalf("%s: round trip gave kind %v, %+v, %v", name, got, p, err)
		}
		body := b[:len(b)-4]
		bad := map[string][]byte{
			"flipped":  append([]byte(nil), b...),
			"trailing": resum(append(append([]byte(nil), body...), 0)),
			"kind":     resum(append([]byte{9}, body[1:]...)),
			"count":    resum(binary.LittleEndian.AppendUint64([]byte{body[0]}, 1<<40)),
		}
		bad["flipped"][len(b)/2] ^= 1
		for i := range b {
			bad[fmt.Sprintf("cut at %d", i)] = b[:i]
		}
		for what, data := range bad {
			if _, _, err := DecodePayload(data); err == nil {
				t.Errorf("%s: %s payload accepted", name, what)
			}
		}
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := sampleCheckpoints()["ols-kl"]
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("file roundtrip mismatch:\ngot  %+v\nwant %+v", got, ck)
	}
	// The atomic save must not leave its temporary file behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temporary file left behind: %s", e.Name())
		}
	}
}

// TestCheckpointDecodeRejectsDamage covers the robustness contract: every
// truncation must error, and so must single-byte corruption anywhere (the
// trailing CRC catches whatever field validation lets through).
func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	ck := sampleCheckpoints()["mc-vp"]
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeCheckpoint(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(raw))
		}
	}
	for i := range raw {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), raw...)
			mut[i] ^= flip
			if _, err := DecodeCheckpoint(bytes.NewReader(mut)); err == nil {
				t.Fatalf("corrupting byte %d (xor %#x) decoded successfully", i, flip)
			}
		}
	}
}

func TestCheckpointDecodeRejectsVersionSkew(t *testing.T) {
	ck := sampleCheckpoints()["os"]
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Bump the version field (bytes 8..11) and re-stamp the trailing CRC so
	// only the version mismatch can be the reason for rejection.
	raw[8] = 2
	restampCRC(raw)
	_, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-skewed checkpoint: err = %v, want version error", err)
	}
}

// restampCRC rewrites the trailing IEEE CRC-32 to match the (possibly
// mutated) preceding bytes.
func restampCRC(raw []byte) {
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
}

// overstatedCheckpoint returns a 74-byte OS checkpoint whose payload
// declares 2^20 entries, 32 MiB of them, and holds none.
func overstatedCheckpoint(t testing.TB) []byte {
	ck := &Checkpoint{Method: "os", Seed: 7, Trials: 10, GraphCRC: 1}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[len(raw)-12:], 1<<20) // the entry count
	restampCRC(raw)
	return raw
}

// TestCheckpointDecodeBoundsAllocation: a checkpoint whose entry count
// overstates its records fails as truncated, and its decode allocates
// for the records read, not for the count: under 1 MiB, where allocating
// the declared 2^20 entries took 33.6 MB.
func TestCheckpointDecodeBoundsAllocation(t *testing.T) {
	raw := overstatedCheckpoint(t)
	if len(raw) != 74 {
		t.Fatalf("overstated checkpoint is %d bytes, want 74", len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeCheckpoint(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated payload") {
		t.Fatalf("overstated checkpoint: err = %v, want a truncated payload", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("decoding the overstated checkpoint allocated %d bytes, want under 1 MiB", got)
	}
}

// TestCheckpointEncodeRejectsInvalid ensures structurally inconsistent
// checkpoints cannot be serialized in the first place.
func TestCheckpointEncodeRejectsInvalid(t *testing.T) {
	bad := []*Checkpoint{
		{Method: "bogus", Trials: 10, Done: 1},
		{Method: "os", Trials: 10, Done: 11},                                                                                      // done past target
		{Method: "os", Trials: 10, Done: -1},                                                                                      // negative prefix
		{Method: "os", Trials: 10, Done: 2, Payload: Payload{Counts: []ButterflyCount{{Count: 5}}}},                               // count > done
		{Method: "ols", Trials: 10, PrepTrials: 5, Done: 2, Payload: Payload{CandCounts: []int64{-1}}},                            // negative count
		{Method: "ols-kl", Trials: 10, PrepTrials: 5, Done: 1, Payload: Payload{CandProbs: []float64{2}, CandTrials: []int64{1}}}, // prob > 1
		{Method: "os", Trials: 10, Done: 2, Payload: Payload{CandCounts: []int64{1}}},                                             // wrong payload for method
	}
	for i, ck := range bad {
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err == nil {
			t.Errorf("case %d: invalid checkpoint encoded successfully: %+v", i, ck)
		}
	}
}

// FuzzCheckpointDecode hammers the decoder with arbitrary bytes: it must
// error or succeed, never panic, and any checkpoint it accepts must
// re-encode to an equal value (decode∘encode is the identity on the
// accepted set).
func FuzzCheckpointDecode(f *testing.F) {
	for _, ck := range sampleCheckpoints() {
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		mut := append([]byte(nil), buf.Bytes()...)
		if len(mut) > 20 {
			mut[20] ^= 0x40
		}
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("MPMBCKP1"))
	f.Add(overstatedCheckpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ck.Encode(&buf); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		back, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("re-encode changed the checkpoint:\nfirst  %+v\nsecond %+v", ck, back)
		}
		kind, p, err := DecodePayload(EncodePayload(ck.payloadKind(), ck.Payload))
		if err != nil || kind != ck.payloadKind() || !reflect.DeepEqual(p, ck.Payload) {
			t.Fatalf("payload codec round trip: kind %v, err %v\nfirst  %+v\nsecond %+v", kind, err, ck.Payload, p)
		}
	})
}
