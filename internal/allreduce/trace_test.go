package allreduce

import (
	"testing"

	"convmeter/internal/obs"
)

// TestRingSpansCarryCrossWorkerLinks runs a traced all-reduce and checks
// the per-op span contract the critical-path engine depends on: every
// worker records ar.send/ar.wait/ar.recv spans under its external id,
// each wait carries a causal link, and the link resolves to an ar.send
// recorded by the worker's ring predecessor — the cross-worker edge of
// the step DAG. The ids are not the ring positions, as after a crash
// has dropped a trainer's worker: each position's spans must carry its
// own id on both transports.
func TestRingSpansCarryCrossWorkerLinks(t *testing.T) {
	ids := []int{7, 3, 5}
	// pred maps each id to the id of its ring predecessor.
	pred := map[int]int{7: 5, 3: 7, 5: 3}
	for _, transport := range []string{"chan", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			o := obs.New()
			vectors, want := makeVectors(len(ids), 32, 11)
			var err error
			if transport == "tcp" {
				err = RingTCPOpts(vectors, Options{Obs: o, WorkerIDs: ids})
			} else {
				err = RingObs(vectors, o, ids...)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkAllEqualSum(t, vectors, want)
			spans := o.Trc.Spans()
			byID := make(map[int64]obs.SpanRecord, len(spans))
			// count holds the spans per (op name, worker id).
			type op struct {
				name   string
				worker int
			}
			count := map[op]int{}
			for _, s := range spans {
				byID[s.ID] = s
			}
			for _, s := range spans {
				if _, ok := pred[s.Worker]; !ok {
					t.Fatalf("span %q is attributed to worker %d, want one of %v", s.Name, s.Worker, ids)
				}
				count[op{s.Name, s.Worker}]++
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
				if sender.Worker != pred[s.Worker] {
					t.Fatalf("ar.wait span %d on worker %d links to worker %d, want its predecessor %d",
						s.ID, s.Worker, sender.Worker, pred[s.Worker])
				}
			}
			// Each worker runs 2·(N−1) = 4 ring steps, one of each op per step.
			for _, id := range ids {
				for _, name := range []string{"ar.send", "ar.wait", "ar.recv"} {
					if got := count[op{name, id}]; got != 4 {
						t.Errorf("worker %d: %s spans = %d, want 4 (counts %v)", id, name, got, count)
					}
				}
			}
		})
	}
}
