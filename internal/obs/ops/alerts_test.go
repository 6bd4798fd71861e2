package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"convmeter/internal/obs"
	"convmeter/internal/obs/alert"
	"convmeter/internal/obs/tsdb"
)

// obsStack is a manual-clock obs+tsdb+alert stack behind an httptest
// handler, for deterministic endpoint tests.
type obsStack struct {
	o   *obs.Obs
	db  *tsdb.DB
	eng *alert.Engine
	now time.Duration
	ts  *httptest.Server
}

func newObsStack(t *testing.T, rules []alert.Rule) *obsStack {
	t.Helper()
	s := &obsStack{o: obs.New()}
	s.db = tsdb.New(tsdb.Config{Obs: s.o, Clock: func() time.Duration { return s.now }, Capacity: 128})
	s.eng = alert.New(alert.Config{Obs: s.o, DB: s.db, Rules: rules})
	s.ts = httptest.NewServer(Handler(Config{Obs: s.o, TSDB: s.db, Alerts: s.eng}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *obsStack) tick() {
	s.now += time.Second
	s.db.Sync()
	s.db.Sample(s.now)
	s.eng.Eval(s.now)
}

func TestQueryEndpoint(t *testing.T) {
	s := newObsStack(t, nil)
	c := s.o.Counter("convmeter_q_total", "t")
	h := s.o.Histogram("convmeter_q_seconds", "t", []float64{0.1, 1})
	s.tick()
	for i := 0; i < 5; i++ {
		c.Add(4)
		h.Observe(0.5)
		s.tick()
	}
	getJSON := func(path string) map[string]any {
		t.Helper()
		status, body, hdr := get(t, s.ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("GET %s status %d: %s", path, status, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("GET %s content type %q", path, ct)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
		return m
	}

	m := getJSON("/api/query")
	list, _ := m["list"].([]any)
	if len(list) == 0 {
		t.Fatal("op=series listed no series")
	}
	m = getJSON("/api/query?op=rate&series=convmeter_q_total&window=30s")
	if ok, _ := m["ok"].(bool); !ok || m["rate_per_second"].(float64) != 4 {
		t.Errorf("rate response = %v", m)
	}
	m = getJSON("/api/query?op=range&series=convmeter_q_total&window=30s")
	if pts, _ := m["points"].([]any); len(pts) != 6 {
		t.Errorf("range returned %d points, want 6", len(m["points"].([]any)))
	}
	m = getJSON("/api/query?op=stats&series=convmeter_q_total&window=30s")
	if ok, _ := m["ok"].(bool); !ok {
		t.Errorf("stats response = %v", m)
	}
	m = getJSON("/api/query?op=quantile&series=convmeter_q_seconds&q=0.5&window=30s")
	if ok, _ := m["ok"].(bool); !ok || m["value"].(float64) <= 0.1 || m["value"].(float64) > 1 {
		t.Errorf("quantile response = %v", m)
	}
	// A series with no data is ok=false, not an HTTP error.
	m = getJSON("/api/query?op=rate&series=convmeter_absent_total")
	if ok, _ := m["ok"].(bool); ok {
		t.Errorf("absent series reported ok: %v", m)
	}
	for _, bad := range []string{
		"/api/query?op=bogus",
		"/api/query?op=rate", // missing series
		"/api/query?op=rate&series=x&window=nope",
		"/api/query?op=quantile&series=x&q=7",
	} {
		if status, _, _ := get(t, s.ts.URL+bad); status != http.StatusBadRequest {
			t.Errorf("GET %s status %d, want 400", bad, status)
		}
	}
}

// TestReadyzCriticalAlertGate is the readiness regression: /readyz
// flips to 503 while a critical alert fires and recovers to 200 the
// moment it resolves.
func TestReadyzCriticalAlertGate(t *testing.T) {
	s := newObsStack(t, []alert.Rule{{
		Name: "gate", Severity: alert.SevCritical, Kind: alert.KindThreshold,
		Series: "convmeter_gate_gauge", Mode: alert.ModeValue,
		Op: alert.OpAbove, Value: 0.5, Window: 2 * time.Second,
	}})
	g := s.o.Gauge("convmeter_gate_gauge", "t")
	s.tick()
	if status, _, _ := get(t, s.ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz before any alert = %d, want 200", status)
	}
	g.Set(1)
	s.tick()
	status, body, _ := get(t, s.ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while critical fires = %d, want 503", status)
	}
	if !strings.Contains(body, "critical alert") {
		t.Errorf("/readyz 503 body %q does not name the cause", body)
	}
	// Warning-severity alerts must NOT gate readiness; only the critical
	// one does, and recovery is immediate on resolve.
	g.Set(0)
	for i := 0; i < 5; i++ {
		s.tick()
	}
	if status, _, _ := get(t, s.ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz after resolve = %d, want 200 again", status)
	}
}

func TestReadyzWarningDoesNotGate(t *testing.T) {
	s := newObsStack(t, []alert.Rule{{
		Name: "warn", Severity: alert.SevWarning, Kind: alert.KindThreshold,
		Series: "convmeter_warn_gauge", Mode: alert.ModeValue,
		Op: alert.OpAbove, Value: 0.5, Window: 2 * time.Second,
	}})
	s.o.Gauge("convmeter_warn_gauge", "t").Set(1)
	s.tick()
	if s.eng.Snapshot()[0].State != alert.StateFiring {
		t.Fatal("warning rule not firing")
	}
	if status, _, _ := get(t, s.ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz with only a warning firing = %d, want 200", status)
	}
}

func TestAlertsEndpoint(t *testing.T) {
	s := newObsStack(t, []alert.Rule{
		alert.ThresholdRate("hot", alert.SevCritical, "convmeter_a_total", alert.OpAbove, 0, 10*time.Second),
	})
	c := s.o.Counter("convmeter_a_total", "t")
	for i := 0; i < 3; i++ {
		c.Add(2)
		s.tick()
	}
	status, body, hdr := get(t, s.ts.URL+"/alerts")
	if status != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("/alerts status %d, content type %q", status, hdr.Get("Content-Type"))
	}
	var rep alert.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/alerts body is not a report: %v", err)
	}
	if rep.Schema != alert.ReportSchema {
		t.Errorf("/alerts schema %q, want %q", rep.Schema, alert.ReportSchema)
	}
	if len(rep.Alerts) != 1 || rep.Alerts[0].State != alert.StateFiring {
		t.Errorf("/alerts alerts = %+v", rep.Alerts)
	}
	if len(rep.Transitions) != 1 || rep.Transitions[0].To != alert.StateFiring {
		t.Errorf("/alerts transitions = %+v", rep.Transitions)
	}
}

func TestDashboardServed(t *testing.T) {
	ts := httptest.NewServer(Handler(Config{}))
	defer ts.Close()
	status, body, hdr := get(t, ts.URL+"/dashboard")
	if status != http.StatusOK {
		t.Fatalf("/dashboard status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("/dashboard content type %q", ct)
	}
	for _, want := range []string{"convmeter ops", "/api/query", "/alerts", "sparkline"} {
		if !strings.Contains(strings.ToLower(body), strings.ToLower(want)) {
			t.Errorf("/dashboard page missing %q", want)
		}
	}
}

func TestNilObsSurfacesServeValidPayloads(t *testing.T) {
	ts := httptest.NewServer(Handler(Config{}))
	defer ts.Close()
	if status, body, _ := get(t, ts.URL+"/api/query"); status != http.StatusOK || !strings.Contains(body, `"list"`) {
		t.Errorf("nil-TSDB /api/query = %d %q", status, body)
	}
	status, body, _ := get(t, ts.URL+"/alerts")
	var rep alert.Report
	if status != http.StatusOK || json.Unmarshal([]byte(body), &rep) != nil || rep.Schema != alert.ReportSchema {
		t.Errorf("nil-Alerts /alerts = %d %q", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("nil-Alerts /readyz = %d, want 200", status)
	}
}
