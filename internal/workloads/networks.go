package workloads

import (
	"fmt"

	"ruby/internal/workload"
)

// This file hosts the workload.Network constructors: the suite layer tables
// of workloads.go lifted into producer/consumer graphs. The []Layer entry
// points remain as thin wrappers (deprecated) so existing callers keep
// compiling; new code should take a *workload.Network and fall back to
// per-layer mapping when the graph is edge-free.

// NetworkFromLayers wraps a layer list in an edge-free Network — the
// degenerate graph that per-layer suite runs operate on.
func NetworkFromLayers(name string, layers []Layer) *workload.Network {
	nodes := make([]workload.Node, len(layers))
	for i, l := range layers {
		nodes[i] = workload.Node{Name: l.Name, Repeat: l.Repeat, Work: l.Work}
	}
	return workload.MustNetwork(name, nodes, nil)
}

// LayersOf flattens a Network back into the suite layer list, classifying
// each node's layer type from its workload shape (the DeepBench domain tags
// are not recoverable and stay empty).
func LayersOf(net *workload.Network) []Layer {
	out := make([]Layer, len(net.Nodes))
	for i := range net.Nodes {
		nd := &net.Nodes[i]
		out[i] = Layer{
			Name: nd.Name, Type: classify(nd.Work), Repeat: nd.Repeats(), Work: nd.Work,
		}
	}
	return out
}

// classify recovers the Fig. 10 layer grouping from a workload's shape.
func classify(w *workload.Workload) LayerType {
	bound := func(d string) int {
		if w.DimID(d) < 0 {
			return 0
		}
		return w.Bound(d)
	}
	if r, s := bound("R"), bound("S"); r > 0 && s > 0 {
		switch {
		case r == 7 && s == 7:
			return Conv7x7
		case r == 3 && s == 3:
			return Conv3x3
		case r == 1 && s == 1:
			return Pointwise
		default:
			return ConvOther
		}
	}
	if bound("K") > 0 {
		if bound("N") == 1 {
			return DenseFC
		}
		return GEMM
	}
	return ConvOther
}

// convChain builds the standard convolution-stack correspondence: the
// producer's output channels become the consumer's input channels, with
// batch and feature-map dimensions carried through (the consumer's spatial
// coordinate strides absorb stage-entry downsampling).
func convChain(from, to string) workload.Edge {
	return workload.Edge{
		From: from, To: to,
		Dims: map[string]string{"N": "N", "M": "C", "P": "P", "Q": "Q"},
	}
}

// gemmChain builds the back-to-back GEMM correspondence: Z1[M][N] feeds
// A2[M][K].
func gemmChain(from, to string) workload.Edge {
	return workload.Edge{From: from, To: to, Dims: map[string]string{"M": "M", "N": "K"}}
}

// ResNet50Network returns ResNet-50 as a workload graph: the layer table of
// ResNet50 plus the bottleneck-chain edges the representative layers admit —
// the 1x1-reduce → 3x3 → 1x1-expand chain of each stage and the strided
// stage-transition edges (a 56x56x256 stage-2 output feeding the stride-2
// stage-3 reduce, and so on down the pyramid). conv1 and fc1000 stay
// unconnected: max/average pooling sits between them and their neighbors,
// which the edge model does not express.
func ResNet50Network() *workload.Network {
	net := NetworkFromLayers("resnet50", ResNet50())
	net.Edges = []workload.Edge{
		// Stage 2 bottleneck chain.
		convChain("res2a_branch2a", "res2x_branch2b"),
		convChain("res2x_branch2b", "res2x_branch2c"),
		// Stage transitions: the expand output feeds the next stage's
		// stride-2 reduce (56 = 2x28, 28 = 2x14, 14 = 2x7).
		convChain("res2x_branch2c", "res3a_branch2a"),
		convChain("res3a_branch2a", "res3x_branch2b"),
		convChain("res3x_branch2b", "res3x_branch2c"),
		convChain("res3x_branch2c", "res4a_branch2a"),
		convChain("res4a_branch2a", "res4x_branch2b"),
		convChain("res4x_branch2b", "res4x_branch2c"),
		convChain("res4x_branch2c", "res5a_branch2a"),
		convChain("res5a_branch2a", "res5x_branch2b"),
		convChain("res5x_branch2b", "res5x_branch2c"),
	}
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}

// DeepBenchNetwork returns the DeepBench selection as an edge-free network:
// its kernels are drawn from unrelated models, so no output feeds another
// entry's input. Per-layer mapping over it reproduces DeepBench exactly.
func DeepBenchNetwork() *workload.Network {
	return NetworkFromLayers("deepbench", DeepBench())
}

// DeepBenchStacks returns back-to-back stacks built from DeepBench shapes —
// the fused-mapping counterpart of the per-kernel suite. The speech stack
// chains the DeepSpeech output-projection GEMM into a same-width second
// projection (M→M, N→K); the vision stack chains two 3x3x128 28x28 layers
// (M→C). Both intermediates are far larger than any on-chip buffer, which is
// what makes eliding their DRAM round-trip worthwhile.
func DeepBenchStacks() *workload.Network {
	gemm1 := workload.MustMatmul("speech_gemm_5124x700x2048", 5124, 700, 2048)
	gemm2 := workload.MustMatmul("speech_gemm2_5124x2048x700", 5124, 2048, 700)
	conv1 := workload.MustConv2D(workload.Conv2DParams{
		Name: "vision_stack_3x3_28a", N: 1, M: 128, C: 128, P: 28, Q: 28, R: 3, S: 3})
	conv2 := workload.MustConv2D(workload.Conv2DParams{
		Name: "vision_stack_3x3_28b", N: 1, M: 128, C: 128, P: 28, Q: 28, R: 3, S: 3})
	return workload.MustNetwork("deepbench-stacks",
		[]workload.Node{
			{Name: "speech_gemm_5124x700x2048", Work: gemm1},
			{Name: "speech_gemm2_5124x2048x700", Work: gemm2},
			{Name: "vision_stack_3x3_28a", Work: conv1},
			{Name: "vision_stack_3x3_28b", Work: conv2},
		},
		[]workload.Edge{
			gemmChain("speech_gemm_5124x700x2048", "speech_gemm2_5124x2048x700"),
			convChain("vision_stack_3x3_28a", "vision_stack_3x3_28b"),
		})
}

// Networks returns every built-in suite as a workload graph; graphs without
// fusable structure are edge-free. The CLI and server use it for discovery,
// mirroring Suites.
func Networks() map[string]*workload.Network {
	return map[string]*workload.Network{
		"resnet50":         ResNet50Network(),
		"deepbench":        DeepBenchNetwork(),
		"deepbench-stacks": DeepBenchStacks(),
		"vgg16":            VGG16Network(),
		"transformer":      NetworkFromLayers("transformer", TransformerEncoder(384, 768, 12)),
		"mobilenetv2":      NetworkFromLayers("mobilenetv2", MobileNetV2()),
	}
}

// NetworkNamed looks up a built-in network graph by name (Networks),
// falling back to an edge-free graph over the suite of that name (Suites).
// Every entry point that takes a network or suite name goes through it.
func NetworkNamed(name string) (*workload.Network, error) {
	if net, ok := Networks()[name]; ok {
		return net, nil
	}
	if layers, ok := Suites()[name]; ok {
		return NetworkFromLayers(name, layers), nil
	}
	return nil, fmt.Errorf("unknown network %q", name)
}

// VGG16Network returns VGG-16 as a workload graph with the back-to-back
// same-resolution 3x3 chains inside each block (pooling between blocks keeps
// the blocks themselves unconnected).
func VGG16Network() *workload.Network {
	net := NetworkFromLayers("vgg16", VGG16())
	net.Edges = []workload.Edge{
		convChain("vgg_conv1_1", "vgg_conv1_2"),
		convChain("vgg_conv2_1", "vgg_conv2_2"),
		convChain("vgg_conv3_1", "vgg_conv3_x"),
		convChain("vgg_conv4_1", "vgg_conv4_x"),
	}
	if err := net.Validate(); err != nil {
		panic(err)
	}
	return net
}
