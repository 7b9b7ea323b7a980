package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"llbpx/internal/serve"
)

// TestGatewayPredictMatchesLlbpd posts the same predict bodies to the
// gateway's HTTP frontend and straight to an llbpd, and requires the
// same status and the same reply bytes: the two share one request parse
// (serve.ReadPredict), one reply encoder and one error-envelope writer,
// so a client cannot tell them apart on accepted batches, on any
// rejected one, or on an error off the predict path.
func TestGatewayPredictMatchesLlbpd(t *testing.T) {
	dir := t.TempDir()
	const maxBatch = 2
	routed := startBackendWith(t, "b1", serve.New(serve.Config{SnapshotDir: dir, SessionTTL: -1, MaxBatch: maxBatch}))
	cfg := fastCfg(routed.backend())
	cfg.MaxBatch = maxBatch
	gw := httptest.NewServer(newGateway(t, cfg))
	t.Cleanup(gw.Close)
	direct := startBackendWith(t, "b2", serve.New(serve.Config{SessionTTL: -1, MaxBatch: maxBatch}))

	post := func(base, body string) (int, string, []byte) {
		resp, err := http.Post(base+"/v1/sessions/same-bytes/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), got
	}
	for i, body := range []string{
		`{"predictor":"tsl-8k","branches":[{"pc":4096,"kind":0,"taken":true,"gap":3},{"pc":4100,"target":8192,"kind":2,"taken":true,"gap":1}]}`,
		`{"predictor":"tsl-8k","branches":[{"pc":4096,"kind":0,"taken":false,"gap":3}]}` + "\n",
		`{"branches":[{"PC":4104,"Kind":0,"Taken":true,"Gap":2}]}`,
		`{"branches":[]}`,
		`{"branches":null}`,
		`{"branches":[{"pc":1,"kind":0},{"pc":2,"kind":0},{"pc":3,"kind":0}]}`,
		`{"branches":[{"pc":1,"kind":9}]}`,
		`{"branches":[{"pc":1e3,"kind":0}]}`,
		`{"branches":[{"pc":-1,"kind":0}]}`,
		`{"branches":[{"pc":1,"kind":0}`,
		`not json`,
	} {
		gs, gct, gb := post(gw.URL, body)
		ds, dct, db := post(direct.hts.URL, body)
		if i < 3 && gs != http.StatusOK {
			t.Fatalf("body %s: status %d, want 200: %s", body, gs, gb)
		}
		if gs != ds || gct != dct || !bytes.Equal(gb, db) {
			t.Errorf("body %s:\ngateway %d %s %s\nllbpd   %d %s %s", body, gs, gct, gb, ds, dct, db)
		}
	}

	// Errors off the predict path come out of the same envelope writer.
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		do := func(base string) (int, string, []byte) {
			req, err := http.NewRequest(method, base+"/v1/sessions/never-created", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, resp.Header.Get("Content-Type"), got
		}
		gs, gct, gb := do(gw.URL)
		ds, dct, db := do(direct.hts.URL)
		if gs != http.StatusNotFound {
			t.Fatalf("%s of an unknown session: status %d, want 404: %s", method, gs, gb)
		}
		if gs != ds || gct != dct || !bytes.Equal(gb, db) {
			t.Errorf("%s of an unknown session:\ngateway %d %s %s\nllbpd   %d %s %s", method, gs, gct, gb, ds, dct, db)
		}
	}
}
