package main

import (
	"fmt"
	"time"

	"convmeter/internal/allreduce"
)

// tcpProbeTimeout is the per-op timeout the probe gives RingTCPOpts.
const tcpProbeTimeout = 2 * time.Second

// tcpProbe returns the largest sync payload, in floats, that
// allreduce.RingTCPOpts reduces on two workers with a 2 s op timeout,
// trying the payloads in ascending size and stopping at the first that
// fails. A ring whose workers each write a whole chunk before reading
// stalls once a chunk outgrows what the sockets buffer, and times out.
func tcpProbe() (int, error) {
	best := 0
	for _, name := range syncPayloads {
		_, m, err := buildModel(name)
		if err != nil {
			return 0, err
		}
		n := int(m.Weights)
		vs := make([][]float32, ringWorkers)
		for wk := range vs {
			vs[wk] = make([]float32, n)
			for i := range vs[wk] {
				vs[wk][i] = payloadValue(wk, i, 0x7c9)
			}
		}
		if err := allreduce.RingTCPOpts(vs, allreduce.Options{OpTimeout: tcpProbeTimeout}); err != nil {
			return best, nil
		}
		for i := 0; i < n; i++ {
			want := payloadValue(0, i, 0x7c9) + payloadValue(1, i, 0x7c9)
			if vs[0][i] != want || vs[1][i] != want {
				return 0, fmt.Errorf("tcp probe: element %d of %d reduced wrong", i, n)
			}
		}
		best = max(best, n)
	}
	return best, nil
}
