package simd

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"convmeter/internal/testrace"
)

// ringReduce is the rings' reduce loop that Add replaced, verbatim
// (allreduce's tcpWorker): the reference both leaves are held to. Only
// a verbatim loop is a safe NaN reference, because which NaN survives
// NaN + NaN follows the compiled operand order of ADDSS.
func ringReduce(v []float32, a int, in []float32) {
	for k := range in {
		v[a+k] += in[k]
	}
}

// forEachLeaf runs f once per leaf this host has, named "go" and
// "avx2", and restores the switch after.
func forEachLeaf(f func(leaf string)) {
	saved := avx2
	defer func() { avx2 = saved }()
	avx2 = false
	f("go")
	if saved {
		avx2 = true
		f("avx2")
	}
}

// guard fills the floats around the vectors under test, which Add must
// leave alone.
const guard = 0x7fa5a5a5

// special holds the bit patterns whose sums are easiest to get wrong:
// zeros, infinities, quiet and signalling NaNs of both signs and with
// payloads, subnormals, and the finite extremes.
var special = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, // quiet NaN, both signs
	0x7fc12345, 0xffd00001, // quiet NaN with payloads
	0x7f800001, 0xff812345, // signalling NaN, both signs
	0x00000001, 0x807fffff, 0x007fffff, // subnormals
	0x3f800000, 0xbfc00000, 0x7f7fffff, // 1, -1.5, largest finite
}

// specialPairs encodes every ordered pair of special patterns as one
// fuzz input's words: dst's word, then src's.
func specialPairs() []byte {
	var b []byte
	for _, d := range special {
		for _, s := range special {
			b = binary.LittleEndian.AppendUint32(b, d)
			b = binary.LittleEndian.AppendUint32(b, s)
		}
	}
	return b
}

// FuzzAdd holds both leaves of Add to the rings' former loop bit for
// bit, NaN payloads included. The input's bytes are little-endian words
// taken in turn as dst[i] and src[i] (cycling when short); length sets
// the vectors' length (mod 2,048) and offs their starts, dst at offs&7
// and src at (offs>>3)&7 floats into their arrays, so starts are
// unaligned and every tail length occurs. The floats before and after
// dst must not change. The seed corpus covers every pair of special
// patterns at lengths 0, 1, 31, 32, 33 and 1,000.
func FuzzAdd(f *testing.F) {
	pairs := specialPairs()
	random := make([]byte, 8*1000)
	rand.New(rand.NewSource(1)).Read(random)
	for _, length := range []uint16{0, 1, 31, 32, 33, 1000} {
		f.Add(pairs, length, uint8(0))
		k := 8 * int(length) % len(pairs)
		f.Add(append(pairs[k:len(pairs):len(pairs)], pairs[:k]...), length, uint8(3|5<<3))
		f.Add(random, length, uint8(7|1<<3))
	}
	f.Fuzz(func(t *testing.T, data []byte, length uint16, offs uint8) {
		n, dOff, sOff := int(length%2048), int(offs&7), int(offs>>3&7)
		words := len(data) / 4
		word := func(i int) float32 {
			if words == 0 {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i%words):]))
		}
		base := make([]float32, dOff+n+8)
		for i := range base {
			base[i] = math.Float32frombits(guard)
		}
		src := make([]float32, sOff+n)
		for i := 0; i < n; i++ {
			base[dOff+i], src[sOff+i] = word(2*i), word(2*i+1)
		}
		want := append([]float32(nil), base...)
		ringReduce(want, dOff, src[sOff:])
		forEachLeaf(func(leaf string) {
			got := append([]float32(nil), base...)
			Add(got[dOff:dOff+n], src[sOff:])
			for i := range want {
				if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
					t.Fatalf("%s leaf, n %d, dst at %d, src at %d: float %d = %#08x, ring loop %#08x",
						leaf, n, dOff, sOff, i, g, w)
				}
			}
		})
	})
}

// TestAddZeroAllocs pins Add allocation-free on every leaf.
func TestAddZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)
	dst, src := make([]float32, 1000), make([]float32, 1000)
	forEachLeaf(func(leaf string) {
		if n := testing.AllocsPerRun(100, func() { Add(dst, src) }); n != 0 {
			t.Errorf("%s leaf: Add allocates %.2f/op, want 0", leaf, n)
		}
	})
}

// TestHasAVX2MatchesCPUInfo catches a broken probe: every sum also
// comes out right on the Go leaf, so a CPUID or XGETBV bug would only
// lose the speed. Where the kernel lists avx2 among the CPU flags, the
// probe must report it and Add must have selected its AVX2 leaf.
func TestHasAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("reads the CPU flags of a linux/amd64 host, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	if !cpuFlag(info, "avx2") {
		t.Skip("/proc/cpuinfo lists no avx2 flag: the Go leaf is the only leaf")
	}
	if !HasAVX2() {
		t.Fatal("/proc/cpuinfo lists avx2, but HasAVX2 reports false")
	}
	if !avx2 {
		t.Fatal("/proc/cpuinfo lists avx2, but init did not select Add's AVX2 leaf")
	}
}

// cpuFlag reports whether the first "flags" line of a /proc/cpuinfo
// listing names flag.
func cpuFlag(info []byte, flag string) bool {
	for _, line := range bytes.Split(info, []byte("\n")) {
		key, val, ok := bytes.Cut(line, []byte(":"))
		if ok && string(bytes.TrimSpace(key)) == "flags" {
			for _, f := range bytes.Fields(val) {
				if string(f) == flag {
					return true
				}
			}
			return false
		}
	}
	return false
}
