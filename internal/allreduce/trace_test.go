package allreduce

import (
	"testing"

	"convmeter/internal/obs"
)

// TestRingSpansCarryCrossWorkerLinks runs a traced all-reduce and checks
// the per-op span contract the critical-path engine depends on: every
// worker records ar.send/ar.wait/ar.recv spans, each wait carries a
// causal link, and the link resolves to an ar.send recorded by a
// DIFFERENT worker — the cross-worker edge of the step DAG.
func TestRingSpansCarryCrossWorkerLinks(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			o := obs.New()
			vectors, want := makeVectors(3, 32, 11)
			opts := Options{Obs: o}
			var err error
			if transport == "tcp" {
				err = RingTCPOpts(vectors, opts)
			} else {
				err = RingOpts(vectors, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkAllEqualSum(t, vectors, want)
			spans := o.Trc.Spans()
			byID := make(map[int64]obs.SpanRecord, len(spans))
			count := map[string]int{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			for _, s := range spans {
				count[s.Name]++
				if s.Worker < 0 {
					t.Fatalf("span %q has no worker attribution", s.Name)
				}
				if s.Name != "ar.wait" {
					continue
				}
				if !s.Link.Valid() {
					t.Fatalf("ar.wait span %d on worker %d has no causal link", s.ID, s.Worker)
				}
				sender, ok := byID[s.Link.Span]
				if !ok {
					t.Fatalf("ar.wait span %d links to unrecorded span %d", s.ID, s.Link.Span)
				}
				if sender.Name != "ar.send" {
					t.Fatalf("ar.wait span %d links to %q, want ar.send", s.ID, sender.Name)
				}
				if sender.Worker == s.Worker {
					t.Fatalf("ar.wait span %d links to its own worker %d", s.ID, s.Worker)
				}
			}
			// 3 workers × 2·(N−1) ring steps = 12 of each op.
			for _, name := range []string{"ar.send", "ar.wait", "ar.recv"} {
				if count[name] != 12 {
					t.Errorf("%s spans = %d, want 12 (counts %v)", name, count[name], count)
				}
			}
		})
	}
}
