package allreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"convmeter/internal/obs"
)

// FuzzReadChunk hardens the TCP ring's frame decoder, the one reader of
// bytes from a socket, over arbitrary input and buffer capacities: it
// never panics, never returns more floats than the buffers hold, and
// rejects a length prefix beyond them before reading any body byte.
// Every frame writeChunk builds decodes back to the same bits and span
// context, and a single flipped payload or CRC bit fails with errCRC.
// Malformed frames seed the corpus under testdata/fuzz/FuzzReadChunk.
func FuzzReadChunk(f *testing.F) {
	f.Add(frameBytes([]float32{1.5, -2.25, 0, 3e8}), uint8(4))
	f.Add(frameBytes(nil), uint8(0))
	f.Add(frameBytes([]float32{1, 2}), uint8(8))

	f.Fuzz(func(t *testing.T, data []byte, capacity uint8) {
		maxElems := int(capacity)
		r := bytes.NewReader(data)
		out, _, err := readChunk(r, newChunkBufs(maxElems), Options{})
		if len(out) > maxElems {
			t.Fatalf("decoded %d floats into buffers for %d", len(out), maxElems)
		}
		if len(data) >= frameHeaderLen && binary.LittleEndian.Uint32(data) > uint32(maxElems) {
			if err == nil {
				t.Fatalf("accepted length prefix %d over capacity %d", binary.LittleEndian.Uint32(data), maxElems)
			}
			if read := len(data) - r.Len(); read != frameHeaderLen {
				t.Fatalf("read %d bytes before rejecting an oversized prefix, want the %d-byte header only", read, frameHeaderLen)
			}
		}

		// The floats data spells, up to the capacity, framed by
		// writeChunk, decode to the same bits.
		vals := make([]float32, min(len(data)/4, maxElems))
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		ctx := obs.SpanContext{Trace: int64(len(data)), Span: -int64(capacity)}
		var sink frameSink
		if err := writeChunk(&sink, newChunkBufs(maxElems), vals, ctx); err != nil {
			t.Fatal(err)
		}
		frame := sink.buf
		got, gotCtx, err := readChunk(bytes.NewReader(frame), newChunkBufs(maxElems), Options{})
		if err != nil {
			t.Fatalf("round trip of %d floats: %v", len(vals), err)
		}
		if len(got) != len(vals) || gotCtx != ctx {
			t.Fatalf("round trip: %d floats, ctx %+v; want %d, %+v", len(got), gotCtx, len(vals), ctx)
		}
		for i := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("round trip elem %d: %#08x, want %#08x", i, math.Float32bits(got[i]), math.Float32bits(vals[i]))
			}
		}

		// One flipped bit of the payload or the CRC behind it.
		bits := 8 * (len(frame) - frameHeaderLen)
		bit := int(crc32.ChecksumIEEE(data) % uint32(bits))
		frame[frameHeaderLen+bit/8] ^= 1 << (bit % 8)
		if _, _, err := readChunk(bytes.NewReader(frame), newChunkBufs(maxElems), Options{}); !errors.Is(err, errCRC) {
			t.Fatalf("flipped body bit %d of %d: err = %v, want errCRC", bit, bits, err)
		}
	})
}
