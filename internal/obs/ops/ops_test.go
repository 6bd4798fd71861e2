package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"convmeter/internal/dagrun"
	"convmeter/internal/driftwatch"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
)

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Return our keep-alive connections so Close's graceful drain
		// doesn't have to wait out the client's idle pool.
		http.DefaultClient.CloseIdleConnections()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestStartReportsBoundAddr(t *testing.T) {
	srv := startTestServer(t, Config{})
	if strings.HasSuffix(srv.Addr(), ":0") || srv.Addr() == "" {
		t.Fatalf("Addr() = %q, want a concrete port", srv.Addr())
	}
}

func TestEndpoints(t *testing.T) {
	o := obs.New()
	o.Counter("convmeter_test_total", "h").Inc()
	sp := o.Start("work")
	sp.End()
	mon := driftwatch.New(o)
	mon.Stream("net", "iter").Observe(0.01, 0.011)
	crit := critpath.NewTracker(o)
	crit.Record(critpath.StepAttribution{
		Step: 3, Total: 0.1, Compute: 0.06, Comm: 0.01, Wait: 0.03,
		Dominant: critpath.ClassWait, Blame: 1, BlameWait: 0.025,
		Workers: []critpath.WorkerAttribution{{Worker: 1, CausedWait: 0.025}},
	})
	dag, err := dagrun.New(dagrun.Config{Workers: 2, Obs: o}, []dagrun.Node{
		{ID: "fit", Run: func(in dagrun.Inputs) (any, error) { return 1, nil }},
		{ID: "report", Deps: []string{"fit"}, Run: func(in dagrun.Inputs) (any, error) { return 2, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dag.Execute(); err != nil {
		t.Fatal(err)
	}
	srv := startTestServer(t, Config{Obs: o, Drift: mon, Crit: crit, Dag: dag})
	base := "http://" + srv.Addr()

	status, body, hdr := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if got := hdr.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("/metrics content type %q", got)
	}
	for _, want := range []string{
		"convmeter_test_total 1",
		`convmeter_drift_pairs_total{model="net",phase="iter"} 1`,
		`convmeter_ops_requests_total{path="/metrics"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics misses %q:\n%s", want, body)
		}
	}
	// The scrape is live, not a file: a counter bumped after the first
	// scrape must appear in the next one.
	o.Counter("convmeter_test_total", "h").Inc()
	if _, body, _ := get(t, base+"/metrics"); !strings.Contains(body, "convmeter_test_total 2") {
		t.Errorf("second scrape is stale:\n%s", body)
	}

	if status, body, _ := get(t, base+"/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", status, body)
	}

	status, body, hdr = get(t, base+"/trace")
	if status != http.StatusOK {
		t.Fatalf("/trace status %d", status)
	}
	if got := hdr.Get("Content-Disposition"); !strings.Contains(got, "trace.json") {
		t.Errorf("/trace disposition %q", got)
	}
	var traceDoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &traceDoc); err != nil {
		t.Fatalf("/trace invalid JSON: %v\n%s", err, body)
	}
	if len(traceDoc.TraceEvents) == 0 {
		t.Error("/trace has no events despite a finished span")
	}

	status, body, _ = get(t, base+"/drift")
	if status != http.StatusOK {
		t.Fatalf("/drift status %d", status)
	}
	var driftDoc driftwatch.Snapshot
	if err := json.Unmarshal([]byte(body), &driftDoc); err != nil {
		t.Fatalf("/drift invalid JSON: %v\n%s", err, body)
	}
	if len(driftDoc.Streams) != 1 || driftDoc.Streams[0].Model != "net" {
		t.Errorf("/drift = %+v", driftDoc)
	}

	status, body, _ = get(t, base+"/critpath")
	if status != http.StatusOK {
		t.Fatalf("/critpath status %d", status)
	}
	var critDoc critpath.Report
	if err := json.Unmarshal([]byte(body), &critDoc); err != nil {
		t.Fatalf("/critpath invalid JSON: %v\n%s", err, body)
	}
	if critDoc.Schema != critpath.SchemaV1 || len(critDoc.Steps) != 1 {
		t.Errorf("/critpath = %+v", critDoc)
	}
	if got := critDoc.Steps[0]; got.Step != 3 || got.Blame != 1 {
		t.Errorf("/critpath step = %+v, want recorded attribution", got)
	}
	// And the recorded step is live on the metrics endpoint too.
	if _, body, _ := get(t, base+"/metrics"); !strings.Contains(body, "convmeter_critpath_blame_worker 1") {
		t.Errorf("/metrics misses critpath gauges:\n%s", body)
	}

	status, body, _ = get(t, base+"/dag")
	if status != http.StatusOK {
		t.Fatalf("/dag status %d", status)
	}
	var dagDoc dagrun.Report
	if err := json.Unmarshal([]byte(body), &dagDoc); err != nil {
		t.Fatalf("/dag invalid JSON: %v\n%s", err, body)
	}
	if dagDoc.Schema != dagrun.SchemaV1 || len(dagDoc.Nodes) != 2 {
		t.Errorf("/dag = %+v", dagDoc)
	}
	for _, n := range dagDoc.Nodes {
		if n.State != dagrun.StateDone {
			t.Errorf("/dag node %s state %s, want done", n.ID, n.State)
		}
	}
	// The executor's gauges are live on the metrics endpoint too.
	if _, body, _ := get(t, base+"/metrics"); !strings.Contains(body, `convmeter_dag_nodes{state="done"} 2`) {
		t.Errorf("/metrics misses dag gauges:\n%s", body)
	}

	if status, body, _ := get(t, base+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d %q", status, body)
	}
	for _, prof := range []string{"heap", "goroutine"} {
		if status, body, _ := get(t, base+"/debug/pprof/"+prof); status != http.StatusOK || len(body) == 0 {
			t.Errorf("/debug/pprof/%s = %d with %d bytes", prof, status, len(body))
		}
	}
	if status, body, _ := get(t, base+"/"); status != http.StatusOK || !strings.Contains(body, "/drift") || !strings.Contains(body, "/critpath") {
		t.Errorf("index = %d %q", status, body)
	}
	if status, _, _ := get(t, base+"/nope"); status != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", status)
	}
}

func TestNilHandlesServeValidPayloads(t *testing.T) {
	srv := startTestServer(t, Config{}) // no Obs, no Drift
	base := "http://" + srv.Addr()
	if status, body, _ := get(t, base+"/metrics"); status != http.StatusOK || body != "" {
		t.Errorf("/metrics on nil obs = %d %q, want empty 200", status, body)
	}
	status, body, _ := get(t, base+"/drift")
	if status != http.StatusOK {
		t.Fatalf("/drift status %d", status)
	}
	var doc driftwatch.Snapshot
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/drift on nil monitor invalid: %v\n%s", err, body)
	}
	status, body, _ = get(t, base+"/trace")
	if status != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace on nil obs = %d %q", status, body)
	}
	status, body, _ = get(t, base+"/critpath")
	if status != http.StatusOK {
		t.Fatalf("/critpath status %d", status)
	}
	var critDoc critpath.Report
	if err := json.Unmarshal([]byte(body), &critDoc); err != nil {
		t.Fatalf("/critpath on nil tracker invalid: %v\n%s", err, body)
	}
	if critDoc.Schema != critpath.SchemaV1 || len(critDoc.Steps) != 0 {
		t.Errorf("/critpath on nil tracker = %+v, want empty schema-stamped report", critDoc)
	}
	status, body, _ = get(t, base+"/dag")
	if status != http.StatusOK {
		t.Fatalf("/dag status %d", status)
	}
	var dagDoc dagrun.Report
	if err := json.Unmarshal([]byte(body), &dagDoc); err != nil {
		t.Fatalf("/dag on nil runner invalid: %v\n%s", err, body)
	}
	if dagDoc.Schema != dagrun.SchemaV1 || len(dagDoc.Nodes) != 0 {
		t.Errorf("/dag on nil runner = %+v, want empty schema-stamped report", dagDoc)
	}
}

func TestStartFailsFastOnBadAddr(t *testing.T) {
	if _, err := Start(Config{Addr: "256.256.256.256:1"}); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := Start(Config{}); err == nil {
		t.Fatal("empty address accepted")
	}
	// Binding the same port twice must fail on the second Start, not in
	// a background goroutine.
	srv := startTestServer(t, Config{})
	if _, err := Start(Config{Addr: srv.Addr()}); err == nil {
		t.Fatal("address conflict not reported")
	}
}

// TestConcurrentScrapes is the -race acceptance path: many goroutines
// scraping every endpoint while the workload mutates the registry,
// tracer and drift monitor underneath.
func TestConcurrentScrapes(t *testing.T) {
	o := obs.New()
	mon := driftwatch.New(o)
	crit := critpath.NewTracker(o)
	srv := startTestServer(t, Config{Obs: o, Drift: mon, Crit: crit})
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var workload sync.WaitGroup
	workload.Add(1)
	go func() {
		defer workload.Done()
		c := o.Counter("convmeter_work_total", "h")
		st := mon.Stream("net", "iter")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			st.Observe(0.01, 0.0105)
			crit.Record(critpath.StepAttribution{
				Step: i, Dominant: "none", Blame: -1,
			})
			// Counter and stream mutation are O(1) state, but every span is
			// retained and /trace marshals all of them per scrape — an
			// unbounded span loop outruns the scrapers and makes each
			// response quadratically larger. Cap the trace size; the race
			// coverage (scrape-while-mutate) is unchanged.
			if i < 4096 {
				sp := o.Start("tick")
				sp.End()
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, path := range []string{"/metrics", "/drift", "/trace", "/critpath", "/healthz"} {
					resp, err := http.Get(base + path)
					if err != nil {
						errc <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					if cerr := resp.Body.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- io.ErrUnexpectedEOF
						return
					}
					if path == "/drift" {
						var doc driftwatch.Snapshot
						if err := json.Unmarshal(body, &doc); err != nil {
							errc <- err
							return
						}
					}
					if path == "/critpath" {
						var doc critpath.Report
						if err := json.Unmarshal(body, &doc); err != nil {
							errc <- err
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	workload.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("concurrent scrape: %v", err)
	}
}

// TestCloseLeavesNoGoroutines: after Close returns, the listener and
// every connection goroutine must be gone.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	// Keep-alive client connections pin server goroutines; drop ours
	// before measuring.
	http.DefaultClient.CloseIdleConnections()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// abortingWriter panics with http.ErrAbortHandler on the first body
// write — what a handler does to drop a response mid-flight.
type abortingWriter struct{ header http.Header }

func (w abortingWriter) Header() http.Header     { return w.header }
func (abortingWriter) WriteHeader(int)           {}
func (abortingWriter) Write([]byte) (int, error) { panic(http.ErrAbortHandler) }

// TestInstrumentationSurvivesHandlerPanic guards the deferred
// instrumentation in Handler: a panicking handler (net/http re-raises
// http.ErrAbortHandler per request) must still decrement the inflight
// gauge and count the request. The pre-fix sequential form left the
// gauge permanently elevated until the server looked saturated.
func TestInstrumentationSurvivesHandlerPanic(t *testing.T) {
	o := obs.New()
	h := Handler(Config{Obs: o})
	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Fatal("handler panic did not propagate")
			}
		}()
		h.ServeHTTP(abortingWriter{http.Header{}}, httptest.NewRequest("GET", "/healthz", nil))
	}()
	var sb strings.Builder
	if err := o.Reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "convmeter_ops_inflight_requests 0") {
		t.Errorf("inflight gauge leaked after a handler panic:\n%s", out)
	}
	if !strings.Contains(out, `convmeter_ops_requests_total{path="/healthz"} 1`) {
		t.Errorf("panicking request was not counted:\n%s", out)
	}
}
