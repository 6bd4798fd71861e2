package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work owned by the benchmark and
// timed right before every op, so that each op's time can be normalised
// to the host speed at that moment. The host's speed drifts by tens of
// percent over minutes (other tenants share its cores and memory), and
// a process cannot see why; the yardstick's code never changes, so a
// change to the code under test does not move it. It mirrors the two
// kinds of work the workloads do: a direct convolution that stays in
// cache, and a streaming add over arrays larger than the per-core
// caches, on both processors at once.
//
// The arrays are mapped outside the Go heap so that they do not change
// the garbage collector's pacing of the program under test, and their
// size is subtracted from the peak RSS the segment reports.

// nominalYardstickMs is the reading normalised metrics are scaled to: a
// round value near the yardstick's reading on the reference host
// (2-vCPU Intel Xeon, Sapphire Rapids, KVM), which was 4.1-4.6 ms, and
// 8.3-9.0 ms while other tenants slowed the host to half speed.
// Changing it rescales every normalised metric, so it is fixed.
const nominalYardstickMs = 5.0

const (
	ysChannels = 16
	ysSize     = 32
	// ysStreamFloats per array: three 16 MiB arrays, 48 MiB in all.
	ysStreamFloats = 4 << 20
)

// yardstick holds the buffers the timed work runs over.
type yardstick struct {
	mem     []byte // the mapping behind a, b and c
	a, b, c []float32
	in, w   [2][]float32
	out     [2][]float32
	sink    float32
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, 3*4*ysStreamFloats, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	all := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), 3*ysStreamFloats)
	y := &yardstick{mem: mem, a: all[:ysStreamFloats],
		b: all[ysStreamFloats : 2*ysStreamFloats], c: all[2*ysStreamFloats:]}
	for i := range y.a {
		y.a[i] = float32(i % 13)
		y.b[i] = float32(i % 7)
		y.c[i] = 0
	}
	for g := 0; g < 2; g++ {
		y.in[g] = make([]float32, ysChannels*ysSize*ysSize)
		y.w[g] = make([]float32, ysChannels*ysChannels*9)
		y.out[g] = make([]float32, ysChannels*ysSize*ysSize)
		for i := range y.in[g] {
			y.in[g][i] = float32(i%11) * 0.125
		}
		for i := range y.w[g] {
			y.w[g][i] = float32(i%5) * 0.0625
		}
	}
	return y, nil
}

// residentMB is the resident size of the mapped arrays, all touched.
func (y *yardstick) residentMB() float64 { return float64(len(y.mem)) / 1e6 }

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }

// measure runs the yardstick on two goroutines and returns its wall
// time in milliseconds.
func (y *yardstick) measure() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conv3x3(y.in[g], y.w[g], y.out[g])
			n := len(y.a) / 2
			lo, hi := g*n, (g+1)*n
			a, b, c := y.a[lo:hi], y.b[lo:hi], y.c[lo:hi]
			for i := range c {
				c[i] = a[i] + b[i]
			}
		}(g)
	}
	wg.Wait()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	y.sink += y.out[0][ysSize+1] + y.c[len(y.c)-1]
	return ms
}

// conv3x3 is a direct 3x3 same-padding convolution over one image.
func conv3x3(in, w, out []float32) {
	const C, H = ysChannels, ysSize
	for oc := 0; oc < C; oc++ {
		for y := 1; y < H-1; y++ {
			for x := 1; x < H-1; x++ {
				var s float32
				for ic := 0; ic < C; ic++ {
					base := ic*H*H + (y-1)*H + x - 1
					wb := (oc*C + ic) * 9
					for ky := 0; ky < 3; ky++ {
						row := in[base+ky*H : base+ky*H+3]
						k := w[wb+ky*3 : wb+ky*3+3]
						s += row[0]*k[0] + row[1]*k[1] + row[2]*k[2]
					}
				}
				out[oc*H*H+y*H+x] = s
			}
		}
	}
}
