package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// driftDoc mirrors the /drift and -drift-out JSON layout.
type driftDoc struct {
	Streams []struct {
		Model  string `json:"model"`
		Phase  string `json:"phase"`
		State  string `json:"state"`
		Pairs  int    `json:"pairs"`
		Events int    `json:"events"`
	} `json:"streams"`
	Events int `json:"events_total"`
}

// TestRunWithOpsServer is the live-observability acceptance test: while a
// chaos run with a slowdown profile executes, concurrent scrapers hit the
// ops server's /metrics and /drift endpoints; by the end the drift stream
// must have latched drifting with at least one drift event, and the
// -drift-out artefact must agree with what /drift served.
func TestRunWithOpsServer(t *testing.T) {
	dir := t.TempDir()
	addrPath := filepath.Join(dir, "ops.addr")
	driftPath := filepath.Join(dir, "drift.json")
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true,
		faultsSeed: 7, faultsProfile: "slowdown",
		outPath:    filepath.Join(dir, "report.txt"),
		opsAddr:    "127.0.0.1:0",
		opsAddrOut: addrPath,
		driftOut:   driftPath,
	}
	runErr := make(chan error, 1)
	go func() { runErr <- run(opts) }()

	// The run writes the bound address once the listener is up.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("ops address file never appeared")
		}
		if data, err := os.ReadFile(addrPath); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Concurrent live scrapes while the experiment runs. The server shuts
	// down when run() returns, so connection errors near the end are
	// expected; what must never happen is a malformed 200 response.
	var wg sync.WaitGroup
	var mu sync.Mutex
	sawMetrics, sawDrift := false, false
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{"/metrics", "/drift", "/healthz"} {
					resp, err := http.Get("http://" + addr + path)
					if err != nil {
						return // server already closed
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						continue
					}
					mu.Lock()
					switch path {
					case "/metrics":
						if strings.Contains(string(body), "convmeter_") {
							sawMetrics = true
						}
					case "/drift":
						if json.Valid(body) {
							sawDrift = true
						}
					}
					mu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !sawMetrics || !sawDrift {
		t.Fatalf("live scrapes incomplete: metrics=%t drift=%t", sawMetrics, sawDrift)
	}

	var doc driftDoc
	data, err := os.ReadFile(driftPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Streams) != 1 || doc.Streams[0].Model != "trainreal" || doc.Streams[0].Phase != "iter" {
		t.Fatalf("drift artefact = %+v, want the trainreal/iter stream", doc)
	}
	if doc.Streams[0].State != "drifting" || doc.Events < 1 {
		t.Fatalf("slowdown run did not drift: %+v", doc)
	}
}

// TestRunDriftCleanRun: a clean run raises no drift event — the
// detector's false-positive guard at the CLI level. The chaos run under
// the none profile feeds the one live stream, trainreal/iter; fig2's
// offline LOMO evaluations feed no stream at all.
func TestRunDriftCleanRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    options
		streams int
	}{
		{"exttrainfaults", options{id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7, faultsProfile: "none"}, 1},
		{"fig2", options{id: "fig2", seed: 1, quick: true}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			driftPath := filepath.Join(dir, "drift.json")
			opts := tc.opts
			opts.outPath = filepath.Join(dir, "report.txt")
			opts.driftOut = driftPath
			if err := run(opts); err != nil {
				t.Fatal(err)
			}
			var doc driftDoc
			data, err := os.ReadFile(driftPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Events != 0 {
				t.Fatalf("clean run raised %d drift events: %+v", doc.Events, doc)
			}
			if len(doc.Streams) != tc.streams {
				t.Fatalf("drift artefact has %d streams, want %d: %+v", len(doc.Streams), tc.streams, doc)
			}
			for _, st := range doc.Streams {
				if st.Model != "trainreal" || st.Phase != "iter" || st.Pairs == 0 {
					t.Fatalf("stream %+v, want trainreal/iter with pairs", st)
				}
			}
		})
	}
}
