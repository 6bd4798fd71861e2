package exec

import (
	"math"
	"sync"

	"convmeter/internal/graph"
)

// The parallel kernels below, in conv.go and in gemm.go split their
// work over a flattened index space (batch × head, batch × channel
// plane, group × block of output channels, …) and hand it to the
// persistent worker pool via a pooled task struct — see pool.go. Every
// item writes a disjoint set of output elements, so scheduling cannot
// change the numerics, and the per-invocation allocation count is zero.

// linear computes out = W·flatten(in) + b per batch element: the shared
// GEMM with one column per image, so gemm folds the batch into n.
// Weight layout: [out][in].
func linear(in *Tensor, op *graph.LinearOp, weight, bias []float32, out *Tensor) {
	gemm(gemmTask{
		a: weight, bias: bias, b: in.Data, c: out.Data,
		groups: 1, m: op.Out, k: op.In, images: in.Batch, n: 1,
		bImg: op.In, bK: 1, cImg: op.Out, cRow: 1,
	})
}

// tokenLinear applies a linear layer independently per token of a C×T×1
// sequence: the shared GEMM with the T tokens as its columns.
// Weight layout: [out][in].
func tokenLinear(in *Tensor, op *graph.TokenLinearOp, weight, bias []float32, out *Tensor) {
	T := in.Shape.H
	gemm(gemmTask{
		a: weight, bias: bias, b: in.Data, c: out.Data,
		groups: 1, m: op.Out, k: op.In, images: in.Batch, n: T,
		bImg: op.In * T, bK: T, bCol: 1, cImg: op.Out * T, cRow: T, cCol: 1,
	})
}

// batchNorm applies the inference-time affine transform per channel.
func batchNorm(in *Tensor, scale, shift []float32, out *Tensor) {
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			s, sh := scale[c], shift[c]
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for i, v := range src {
				dst[i] = v*s + sh
			}
		}
	}
}

// layerNorm normalises each token across the embedding dimension. The
// mean/variance passes accumulate in float64 in channel order — the
// exact arithmetic of mean32/variance32 over a gathered buffer, without
// gathering one.
func layerNorm(in *Tensor, scale, shift []float32, out *Tensor) {
	const eps = 1e-5
	C := in.Shape.C
	for b := 0; b < in.Batch; b++ {
		for t := 0; t < in.Shape.H; t++ {
			for w := 0; w < in.Shape.W; w++ {
				var s float64
				for c := 0; c < C; c++ {
					s += float64(in.At(b, c, t, w))
				}
				mu := float32(s / float64(C))
				mu64 := float64(mu)
				var sv float64
				for c := 0; c < C; c++ {
					d := float64(in.At(b, c, t, w)) - mu64
					sv += d * d
				}
				va := float32(sv / float64(C))
				inv := float32(1 / math.Sqrt(float64(va)+eps))
				for c := 0; c < C; c++ {
					out.Set(b, c, t, w, (in.At(b, c, t, w)-mu)*inv*scale[c]+shift[c])
				}
			}
		}
	}
}

// splitMinElems is the input size, in floats, from which activation and
// pool2d split their planes over the worker pool; below it they run on
// the caller's goroutine, where handing planes to the pool costs more
// than it saves.
const splitMinElems = 8192

// minItemElems is the fewest input floats a split item holds: an item
// is a run of whole (image, channel) planes, one plane from 16 floats
// up, and as many as reach 16 below. One item per 1×1 plane cost more
// in dispatch than the plane's work.
const minItemElems = 16

// planesPerItem returns how many planes of plane floats one split item
// holds.
func planesPerItem(plane int) int {
	return (minItemElems + plane - 1) / plane
}

// activation applies fn elementwise, split over the pool by runs of
// (image, channel) planes from splitMinElems floats up.
func activation(in *Tensor, fn graph.ActFunc, out *Tensor) {
	dst := out.Data[:len(in.Data)]
	if len(in.Data) < splitMinElems {
		actSlice(fn, in.Data, dst)
		return
	}
	plane := in.Shape.H * in.Shape.W
	span := plane * planesPerItem(plane)
	t := actTaskPool.Get().(*actTask)
	*t = actTask{in: in.Data, out: dst, fn: fn, span: span}
	parallelRun(t, (len(in.Data)+span-1)/span)
	*t = actTask{}
	actTaskPool.Put(t)
}

// actTask is one split activation; item i is the i-th run of span
// floats, whole planes of the flattened (batch, channel) space.
type actTask struct {
	in, out []float32
	fn      graph.ActFunc
	span    int
}

var actTaskPool = sync.Pool{New: func() any { return new(actTask) }}

func (t *actTask) run(i int, _ *kernelScratch) {
	lo, hi := i*t.span, min((i+1)*t.span, len(t.in))
	actSlice(t.fn, t.in[lo:hi], t.out[lo:hi])
}

// actSlice applies fn to every element of in, writing dst. ReLU and
// ReLU6 run their own branch-free loops: a normalised tensor's signs
// are random, so a compare-and-branch per element mispredicts about
// half the time. They select on the float's bit pattern and reproduce
// applyAct bit for bit, -0, ±Inf and NaN included; the other functions
// go through applyAct.
func actSlice(fn graph.ActFunc, in, dst []float32) {
	dst = dst[:len(in)]
	switch fn {
	case graph.ReLU:
		for i, v := range in {
			b := math.Float32bits(v)
			dst[i] = math.Float32frombits(b &^ bitsIn(b, negLoBits, negInfBits))
		}
	case graph.ReLU6:
		for i, v := range in {
			b := math.Float32bits(v)
			big := bitsIn(b, sixBits+1, posInfBits)
			dst[i] = math.Float32frombits(b&^(bitsIn(b, negLoBits, negInfBits)|big) | sixBits&big)
		}
	default:
		for i, v := range in {
			dst[i] = applyAct(fn, v)
		}
	}
}

// Float32 bit patterns for activation's clamps and their derivatives:
// v < 0 holds exactly for the patterns in [negLoBits, negInfBits]
// (negative non-zero numbers and -Inf; -0 and the negative NaNs lie
// outside), v > 6 exactly for those in (sixBits, posInfBits], and v > 0
// for those in [1, posInfBits].
const (
	negLoBits  = 0x80000001
	negInfBits = 0xFF800000
	sixBits    = 0x40C00000
	posInfBits = 0x7F800000
	oneBits    = 0x3F800000
)

// bitsIn returns all ones when lo <= b <= hi, else zero, without a branch.
func bitsIn(b, lo, hi uint32) uint32 {
	return uint32((int64(b-lo) - int64(hi-lo) - 1) >> 63)
}

// pool2d computes max or average pooling, split over the pool by runs
// of (image, channel) input planes from splitMinElems input floats up.
func pool2d(in *Tensor, op *graph.Pool2dOp, out *Tensor) {
	t := poolTaskPool.Get().(*poolTask)
	n := in.Batch * in.Shape.C
	*t = poolTask{in: in, op: op, out: out, planes: n}
	if len(in.Data) < splitMinElems {
		t.per = n
		t.run(0, nil)
	} else {
		t.per = planesPerItem(in.Shape.H * in.Shape.W)
		parallelRun(t, (n+t.per-1)/t.per)
	}
	*t = poolTask{}
	poolTaskPool.Put(t)
}

// poolTask is one pool2d invocation over planes planes of the flattened
// (batch, channel) space; item i pools the i-th run of per of them.
type poolTask struct {
	in, out     *Tensor
	op          *graph.Pool2dOp
	planes, per int
}

var poolTaskPool = sync.Pool{New: func() any { return new(poolTask) }}

func (t *poolTask) run(i int, _ *kernelScratch) {
	for p := i * t.per; p < min((i+1)*t.per, t.planes); p++ {
		t.plane(p)
	}
}

// plane pools plane i of the flattened (batch, channel) space.
func (t *poolTask) plane(i int) {
	in, op, out := t.in, t.op, t.out
	b, c := i/in.Shape.C, i%in.Shape.C
	src := in.channel(b, c)
	dst := out.channel(b, c)
	kArea := float32(op.KH * op.KW)
	for oh := 0; oh < out.Shape.H; oh++ {
		for ow := 0; ow < out.Shape.W; ow++ {
			var acc float32
			if op.PoolKind == graph.MaxPool {
				acc = float32(math.Inf(-1))
			}
			for kh := 0; kh < op.KH; kh++ {
				ih := oh*op.StrideH - op.PadH + kh
				if ih < 0 || ih >= in.Shape.H {
					continue
				}
				for kw := 0; kw < op.KW; kw++ {
					iw := ow*op.StrideW - op.PadW + kw
					if iw < 0 || iw >= in.Shape.W {
						continue
					}
					v := src[ih*in.Shape.W+iw]
					if op.PoolKind == graph.MaxPool {
						if v > acc {
							acc = v
						}
					} else {
						acc += v
					}
				}
			}
			if op.PoolKind == graph.AvgPool {
				acc /= kArea // count_include_pad, PyTorch default
			}
			dst[oh*out.Shape.W+ow] = acc
		}
	}
}

// adaptiveAvgPool pools (or replicates) to a fixed output resolution
// using PyTorch's region rule: [floor(i·H/out), ceil((i+1)·H/out)).
func adaptiveAvgPool(in *Tensor, out *Tensor) {
	inH, inW := in.Shape.H, in.Shape.W
	outH, outW := out.Shape.H, out.Shape.W
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for oh := 0; oh < outH; oh++ {
				h0 := oh * inH / outH
				h1 := ((oh+1)*inH + outH - 1) / outH
				for ow := 0; ow < outW; ow++ {
					w0 := ow * inW / outW
					w1 := ((ow+1)*inW + outW - 1) / outW
					var acc float32
					for h := h0; h < h1; h++ {
						for w := w0; w < w1; w++ {
							acc += src[h*inW+w]
						}
					}
					dst[oh*outW+ow] = acc / float32((h1-h0)*(w1-w0))
				}
			}
		}
	}
}

// attnTask is one attentionCore invocation; item i enumerates the
// flattened (batch, head) space. The softmax scores live in the
// worker's scratch buffer.
type attnTask struct {
	in, out *Tensor
	op      *graph.AttentionCoreOp
	dh      int
	invSqrt float32
}

var attnTaskPool = sync.Pool{New: func() any { return new(attnTask) }}

func (t *attnTask) run(i int, sc *kernelScratch) {
	b, h := i/t.op.Heads, i%t.op.Heads
	in, out, op := t.in, t.out, t.op
	T := in.Shape.H
	scores := sc.floats(T)
	base := h * t.dh
	for q := 0; q < T; q++ {
		// scores = softmax(q_i · k_j / sqrt(dh))
		maxS := float32(math.Inf(-1))
		for j := 0; j < T; j++ {
			var s float32
			for d := 0; d < t.dh; d++ {
				qv := in.At(b, base+d, q, 0)
				kv := in.At(b, op.Dim+base+d, j, 0)
				s += qv * kv
			}
			s *= t.invSqrt
			scores[j] = s
			if s > maxS {
				maxS = s
			}
		}
		var sum float32
		for j := 0; j < T; j++ {
			scores[j] = float32(math.Exp(float64(scores[j] - maxS)))
			sum += scores[j]
		}
		for j := 0; j < T; j++ {
			scores[j] /= sum
		}
		for d := 0; d < t.dh; d++ {
			var acc float32
			for j := 0; j < T; j++ {
				acc += scores[j] * in.At(b, 2*op.Dim+base+d, j, 0)
			}
			out.Set(b, base+d, q, 0, acc)
		}
	}
}

// attentionCore runs multi-head scaled-dot-product attention over a
// fused QKV sequence (3·dim × T).
func attentionCore(in *Tensor, op *graph.AttentionCoreOp, out *Tensor) {
	dh := op.Dim / op.Heads
	t := attnTaskPool.Get().(*attnTask)
	*t = attnTask{
		in: in, out: out, op: op, dh: dh,
		invSqrt: float32(1 / math.Sqrt(float64(dh))),
	}
	parallelRun(t, in.Batch*op.Heads)
	*t = attnTask{}
	attnTaskPool.Put(t)
}

// toTokens flattens spatial patches into a token sequence, prepends the
// class token and adds position embeddings.
func toTokens(in *Tensor, op *graph.ToTokensOp, cls, pos []float32, out *Tensor) {
	spatial := in.Shape.H * in.Shape.W
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < op.Dim; c++ {
			src := in.channel(b, c)
			out.Set(b, c, 0, 0, cls[c]+pos[0*op.Dim+c])
			for t := 0; t < spatial; t++ {
				out.Set(b, c, t+1, 0, src[t]+pos[(t+1)*op.Dim+c])
			}
		}
	}
}
