package replica

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"testing"
	"time"

	"llbpx/internal/faults"
)

func TestBlobRoundTrip(t *testing.T) {
	payload := []byte("not a real snapshot, framing does not care")
	for _, epoch := range []uint64{0, 1, 1<<63 + 12345} {
		blob := EncodeBlob(epoch, payload)
		e, snap, err := DecodeBlob(blob)
		if err != nil {
			t.Fatalf("DecodeBlob(epoch=%d): %v", epoch, err)
		}
		if e != epoch {
			t.Fatalf("epoch round-trip: got %d, want %d", e, epoch)
		}
		if !bytes.Equal(snap, payload) {
			t.Fatalf("payload round-trip mismatch")
		}
	}
	// Empty payload is legal framing: a zero-length snapshot is the
	// snapshot layer's problem, not the framing's.
	if _, snap, err := DecodeBlob(EncodeBlob(7, nil)); err != nil || len(snap) != 0 {
		t.Fatalf("empty payload: snap=%v err=%v", snap, err)
	}
}

func TestBlobCorrupt(t *testing.T) {
	good := EncodeBlob(42, []byte("payload"))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated magic", good[:4]},
		{"truncated epoch header", good[:HeaderLen-3]},
		{"bad magic", append([]byte("XXXXXXXX"), good[8:]...)},
		{"future version", func() []byte {
			b := append([]byte(nil), good...)
			b[8] = 99
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeBlob(tc.data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBlob(%q) err = %v, want ErrCorrupt", tc.data, err)
			}
		})
	}
}

// installRecorder is a fake standby: it records installed blobs and can
// be scripted to fail.
type installRecorder struct {
	mu     sync.Mutex
	blobs  [][]byte
	status []int // consumed per request; empty = 200
}

func (ir *installRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if len(ir.status) > 0 {
		st := ir.status[0]
		ir.status = ir.status[1:]
		if st != http.StatusOK {
			w.WriteHeader(st)
			return
		}
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	ir.blobs = append(ir.blobs, buf.Bytes())
	w.WriteHeader(http.StatusOK)
}

func (ir *installRecorder) count() int {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	return len(ir.blobs)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestShipperCadenceAndEpoch(t *testing.T) {
	rec := &installRecorder{}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	sh := NewShipper(ShipperConfig{
		Every:    2,
		Interval: time.Hour, // cadence only; the anti-entropy tick never fires
		Export:   func(id string) ([]byte, error) { return []byte("state-of-" + id), nil },
	})
	defer sh.Close()

	// A fresh target gets an immediate full ship, stamped with its epoch.
	sh.SetTarget("s1", hs.URL, 3)
	waitFor(t, "placement ship", func() bool { return rec.count() == 1 })
	epoch, snap, err := DecodeBlob(rec.blobs[0])
	if err != nil || epoch != 3 || string(snap) != "state-of-s1" {
		t.Fatalf("placement ship: epoch=%d snap=%q err=%v", epoch, snap, err)
	}

	// One batch is below Every; the second triggers the cadence ship.
	sh.NoteBatch("s1")
	time.Sleep(20 * time.Millisecond)
	if rec.count() != 1 {
		t.Fatalf("shipped below the batch cadence: %d ships", rec.count())
	}
	sh.NoteBatch("s1")
	waitFor(t, "cadence ship", func() bool { return rec.count() == 2 })
	if lag, ok := sh.Lag("s1"); !ok || lag != 0 {
		t.Fatalf("after ship: lag=%d ok=%v, want 0 true", lag, ok)
	}

	// Batches for sessions without a target are free no-ops.
	sh.NoteBatch("untracked")
	if _, ok := sh.Lag("untracked"); ok {
		t.Fatal("untracked session grew a target")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestShipperInFlightNoDuplicate pins the in-flight rule without timing:
// Export blocks until the test releases it, and every ship shares one
// standby worker, whose queue is FIFO, so a session set as a target
// after a release exports next unless a ship was queued before it.
// Enqueues asked for while a ship is in flight must not queue a second
// ship behind it, and batches owed at settle must still be shipped.
func TestShipperInFlightNoDuplicate(t *testing.T) {
	const standby = "http://standby.invalid"
	var mu sync.Mutex
	posts := map[string]int{}
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		posts[path.Base(path.Dir(r.URL.Path))]++
		mu.Unlock()
		return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody, Request: r}, nil
	})}
	exports := make(chan string, 16)
	release := make(chan struct{})
	sh := NewShipper(ShipperConfig{
		Every:    4,
		Interval: time.Hour, // the test runs the anti-entropy pass itself
		Client:   client,
		Export: func(id string) ([]byte, error) {
			exports <- id
			<-release
			return []byte(id), nil
		},
	})
	defer sh.Close()
	defer close(release) // unblock any export still waiting, before Close
	expectExport := func(want, why string) {
		t.Helper()
		select {
		case id := <-exports:
			if id != want {
				t.Fatalf("next export is %q, want %q: %s", id, want, why)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no export of %q: %s", want, why)
		}
	}

	// A slow first full ship: anti-entropy passes and a batch below the
	// cadence ask for "a" again while it is in flight.
	sh.SetTarget("a", standby, 1)
	expectExport("a", "placement ship")
	sh.antiEntropy()
	sh.NoteBatch("a")
	sh.antiEntropy()
	release <- struct{}{}
	sh.SetTarget("b", standby, 1)
	expectExport("b", "a duplicate ship of a was queued behind the in-flight one")
	release <- struct{}{}

	// Every batches arrive while "c"'s first ship is in flight: the
	// cadence enqueue they ask for must fire when it settles.
	sh.SetTarget("c", standby, 1)
	expectExport("c", "placement ship")
	for range 4 {
		sh.NoteBatch("c")
	}
	release <- struct{}{}
	expectExport("c", "the debt noted in flight was not re-enqueued at settle")
	release <- struct{}{}
	sh.SetTarget("d", standby, 1)
	expectExport("d", "barrier behind c's second ship")
	if lag, ok := sh.Lag("c"); !ok || lag != 0 {
		t.Fatalf("c after its second ship: lag=%d ok=%v, want 0 true", lag, ok)
	}
	if lag, ok := sh.Lag("a"); !ok || lag != 1 {
		t.Fatalf("a: lag=%d ok=%v, want the batch below the cadence left to anti-entropy", lag, ok)
	}
	release <- struct{}{}
	sh.Close() // waits out d's ship

	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"a": 1, "b": 1, "c": 2, "d": 1}
	for id, n := range want {
		if posts[id] != n {
			t.Errorf("session %q shipped %d times, want %d (all: %v)", id, posts[id], n, posts)
		}
	}
}

func TestShipperAntiEntropyRetries(t *testing.T) {
	// First two ship attempts die (one injected at the fault site, one
	// 503 from the standby); the anti-entropy loop must heal both.
	rec := &installRecorder{status: []int{http.StatusServiceUnavailable}}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	inj := faults.New(1)
	inj.Set(SiteReplicate, faults.Rule{ErrRate: 1, MaxErrors: 1})
	var errs int
	var mu sync.Mutex
	sh := NewShipper(ShipperConfig{
		Every:    100,
		Interval: 10 * time.Millisecond,
		Faults:   inj,
		Export:   func(id string) ([]byte, error) { return []byte("x"), nil },
		OnShipError: func(id string, err error) {
			mu.Lock()
			errs++
			mu.Unlock()
		},
	})
	defer sh.Close()
	sh.SetTarget("s1", hs.URL, 1)
	waitFor(t, "anti-entropy repair", func() bool { return rec.count() >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if errs < 2 {
		t.Fatalf("observed %d ship errors, want >= 2 (injected + 503)", errs)
	}
}

func TestShipperStaleEpochDropsTarget(t *testing.T) {
	var fenced sync.WaitGroup
	fenced.Add(1)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
	}))
	defer hs.Close()
	var last error
	var mu sync.Mutex
	var once sync.Once
	sh := NewShipper(ShipperConfig{
		Interval: time.Hour,
		Export:   func(id string) ([]byte, error) { return []byte("x"), nil },
		OnShipError: func(id string, err error) {
			mu.Lock()
			last = err
			mu.Unlock()
			once.Do(fenced.Done)
		},
	})
	defer sh.Close()
	sh.SetTarget("s1", hs.URL, 1)
	fenced.Wait()
	mu.Lock()
	if !errors.Is(last, ErrStaleEpoch) {
		t.Fatalf("ship error = %v, want ErrStaleEpoch", last)
	}
	mu.Unlock()
	waitFor(t, "fenced target dropped", func() bool {
		_, ok := sh.Lag("s1")
		return !ok
	})
	// A fenced session ships nothing more, even with new batches.
	sh.NoteBatch("s1")
	if _, ok := sh.Lag("s1"); ok {
		t.Fatal("fenced session resurrected without SetTarget")
	}
}

func TestShipperExportFailureClearsDebt(t *testing.T) {
	rec := &installRecorder{}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	var mu sync.Mutex
	var errs int
	sh := NewShipper(ShipperConfig{
		Every:    1,
		Interval: time.Hour,
		Export:   func(id string) ([]byte, error) { return nil, errors.New("session gone") },
		OnShipError: func(id string, err error) {
			mu.Lock()
			errs++
			mu.Unlock()
		},
	})
	defer sh.Close()
	sh.SetTarget("s1", hs.URL, 1)
	waitFor(t, "export failure observed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return errs >= 1
	})
	waitFor(t, "debt cleared", func() bool {
		lag, ok := sh.Lag("s1")
		return ok && lag == 0
	})
	if rec.count() != 0 {
		t.Fatalf("a failed export still shipped %d blobs", rec.count())
	}
}
