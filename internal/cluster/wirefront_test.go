package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"llbpx/internal/wire"
)

// TestGatewayWireMatchesLlbpd sends the same frames to the gateway's
// wire frontend and straight to an llbpd wire listener, and requires the
// same reply frame type and, for a NACK, the same code and retryable
// flag. Both frontends run wire.Server's one connection pipeline, so a
// wire client cannot tell them apart on any refusal either. An unknown
// frame type poisons framing trust: both hang up.
func TestGatewayWireMatchesLlbpd(t *testing.T) {
	routed := startBackend(t, "b1", t.TempDir())
	gw := gatewayWireAddr(t, newGateway(t, fastCfg(routed.backend())))
	direct := startBackend(t, "b2", t.TempDir())
	batch := workloadBranches(t, "kafka", 2_000)[:64]

	type reply struct {
		typ       byte
		code      string
		retryable bool
	}
	cases := []struct {
		name  string
		frame []byte
		want  byte
	}{
		{"malformed predict payload", rawFrame(wire.FramePredict, 1, []byte{0xff}), wire.FrameNack},
		{"empty batch", wire.AppendPredict(nil, 2, "empty", "tsl-8k", 1, nil), wire.FrameNack},
		{"unknown predictor", wire.AppendPredict(nil, 3, "unknown", "no-such-predictor", 1, batch), wire.FrameNack},
		{"create", wire.AppendPredict(nil, 4, "owner", "tsl-8k", 1, batch), wire.FramePredictOK},
		{"predictor conflict", wire.AppendPredict(nil, 5, "owner", "llbp-x", 2, batch), wire.FrameNack},
		{"close unknown session", wire.AppendClose(nil, 6, "never-created"), wire.FrameNack},
		{"ping", wire.AppendPing(nil, 7), wire.FramePong},
	}
	conns := map[string]*rawConn{"gateway": dialRaw(t, gw), "llbpd": dialRaw(t, direct.ln.Addr().String())}
	for _, tc := range cases {
		got := map[string]reply{}
		for name, c := range conns {
			typ, payload, err := c.exchange(tc.frame)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, name, err)
			}
			r := reply{typ: typ}
			if typ == wire.FrameNack {
				var nk wire.Nack
				if err := wire.DecodeNack(payload, &nk); err != nil {
					t.Fatalf("%s: %s: %v", tc.name, name, err)
				}
				r.code, r.retryable = string(nk.Code), nk.Retryable
			}
			got[name] = r
		}
		if got["gateway"] != got["llbpd"] || got["llbpd"].typ != tc.want {
			t.Errorf("%s: gateway %+v, llbpd %+v, want frame type %#x on both", tc.name, got["gateway"], got["llbpd"], tc.want)
		}
	}
	for name, c := range conns {
		if _, _, err := c.exchange(rawFrame(0x7f, 8, nil)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: unknown frame type answered (%v), want the connection closed", name, err)
		}
	}
}

// rawConn is a handshaken wire connection driven frame by frame.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	preamble := []byte{'L', 'L', 'B', 'W', wire.Version, 0}
	if _, err := c.Write(preamble); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(preamble))
	if _, err := io.ReadFull(c, got); err != nil || string(got) != string(preamble) {
		t.Fatalf("handshake with %s: % x %v", addr, got, err)
	}
	return &rawConn{c: c, br: bufio.NewReader(c)}
}

// exchange writes one frame and reads the reply's type and payload.
func (rc *rawConn) exchange(frame []byte) (byte, []byte, error) {
	if _, err := rc.c.Write(frame); err != nil {
		return 0, nil, err
	}
	body, _, _, err := wire.ReadFrame(rc.br, nil)
	if err != nil {
		return 0, nil, err
	}
	typ, _, payload, err := wire.ParseHeader(body)
	return typ, payload, err
}

// rawFrame frames an arbitrary payload under a valid length prefix and
// CRC, so only the payload (or the type) is wrong.
func rawFrame(typ byte, seq uint64, payload []byte) []byte {
	body := binary.AppendUvarint([]byte{typ}, seq)
	body = append(body, payload...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)+4))
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}
