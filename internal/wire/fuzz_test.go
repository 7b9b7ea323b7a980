package wire

import (
	"bytes"
	"testing"

	"llbpx/internal/core"
)

// FuzzWireDecode fuzzes every layer of the decode path: frame extraction
// (length prefix, CRC), header parsing, and each payload decoder. The
// properties under test are that hostile input — truncated frames,
// bit-flipped bodies, torn length prefixes, adversarial varints, absurd
// counts — always errors cleanly (never panics) and never makes the
// decoder allocate storage disproportionate to the bytes actually
// presented.
func FuzzWireDecode(f *testing.F) {
	// Seed with valid frames of every type, their bare payloads, and a
	// few deliberate corruptions for coverage of each rejection path.
	batch := []core.Branch{
		{PC: 0x1000, Kind: core.CondDirect, Target: 0x1040, Taken: true, InstrGap: 3},
		{PC: 0x1008, Kind: core.Call, Target: 0x8000, Taken: true, InstrGap: 2},
		{PC: 0x8040, Kind: core.Return, Taken: true, InstrGap: 5},
	}
	preds := []core.Prediction{{Taken: true}, {Taken: true}, {Taken: true}}
	st := WireStats{Instructions: 100, CondBranches: 1, Batches: 1}
	seeds := [][]byte{
		AppendPredict(nil, 1, "s", "tsl-8k", 1, batch),
		AppendPredictOK(nil, 1, FlagCreated, "tsl-8k", batch, preds, st),
		AppendNack(nil, 2, "overloaded", "busy", true, 1000),
		AppendClose(nil, 3, "s"),
		AppendCloseOK(nil, 3, "tsl-8k", st),
		AppendPing(nil, 4),
		AppendPong(nil, 4),
		{0xff, 0xff, 0xff, 0xff},                                           // absurd length prefix
		{0x06, 0x00, 0x00, 0x00, 0x01},                                     // truncated body
		bytes.Repeat([]byte{0x80}, 32),                                     // non-terminating varint
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 10-byte varint
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 6 {
			f.Add(s[4:])        // body without length prefix
			f.Add(s[:len(s)/2]) // torn frame
			flipped := bytes.Clone(s)
			flipped[len(s)/2] ^= 0x10
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Layer 1+2: full frame stream. Only CRC-valid frames reach the
		// payload decoders in production, but decode them here too.
		if body, _, _, err := ReadFrame(bytes.NewReader(data), nil); err == nil {
			if _, _, payload, err := ParseHeader(body); err == nil {
				decodeEverything(t, payload, len(data))
			}
		}
		// Layer 3 direct: the CRC would reject almost all mutated inputs,
		// so also fuzz the payload decoders on the raw bytes — the server
		// equivalent of a corrupted frame whose CRC happened to collide.
		decodeEverything(t, data, len(data))
	})
}

// decodeEverything runs each payload decoder on the bytes and enforces
// the proportional-allocation property.
func decodeEverything(t *testing.T, payload []byte, inputLen int) {
	var pr Predict
	if err := DecodePredict(payload, &pr, 1<<16); err == nil {
		// A decoded batch exists only if the payload carried >= 3 bytes
		// per branch, so storage can never exceed the input size.
		if cap(pr.Branches) > inputLen {
			t.Fatalf("decoder allocated %d branches from %d input bytes", cap(pr.Branches), inputLen)
		}
		// Successful decodes must re-encode to a parseable frame (the
		// codec never emits something it cannot read back).
		re := AppendPredict(nil, 1, string(pr.Session), string(pr.Predictor), pr.BatchNum, pr.Branches)
		if _, _, _, err := ReadFrame(bytes.NewReader(re), nil); err != nil {
			t.Fatalf("re-encode of decoded batch unreadable: %v", err)
		}
	}
	var ok PredictOK
	if err := DecodePredictOK(payload, &ok, 1<<16); err == nil {
		if len(ok.Cond) > inputLen || ok.N > 8*inputLen {
			t.Fatalf("response decoder claims %d predictions from %d bytes", ok.N, inputLen)
		}
	}
	var nk Nack
	_ = DecodeNack(payload, &nk)
	var cl Close
	_ = DecodeClose(payload, &cl)
	var co CloseOK
	_ = DecodeCloseOK(payload, &co)
}
