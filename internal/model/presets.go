package model

// Presets mirror the paper's Table IV model configurations. GPHLarge's full
// size (hidden 768, 32 heads, 12 layers) is faithful to the paper; CPU runs
// train a width-scaled variant (DESIGN.md "Experiment harness", deviation
// #2).

// GraphormerSlim returns the GPH-Slim configuration: 4 layers, hidden 64,
// 8 heads, degree encodings + SPD bias.
func GraphormerSlim(inDim, outDim int, seed int64) Config {
	return Config{
		Name: "gph-slim", Layers: 4, Hidden: 64, Heads: 8,
		InDim: inDim, OutDim: outDim, Dropout: 0.1,
		UseDegreeEnc: true, UseSPDBias: true, Seed: seed,
	}
}

// GraphormerLarge returns the GPH-Large configuration: 12 layers, hidden
// 768, 32 heads.
func GraphormerLarge(inDim, outDim int, seed int64) Config {
	return Config{
		Name: "gph-large", Layers: 12, Hidden: 768, Heads: 32,
		InDim: inDim, OutDim: outDim, Dropout: 0.1,
		UseDegreeEnc: true, UseSPDBias: true, Seed: seed,
	}
}

// GraphormerLargeScaled returns GPH-Large shrunk by factor f in width and
// depth for CPU execution (f=4 → 3 layers, hidden 192, 8 heads).
func GraphormerLargeScaled(inDim, outDim int, f int, seed int64) Config {
	if f < 1 {
		f = 1
	}
	cfg := GraphormerLarge(inDim, outDim, seed)
	cfg.Name = "gph-large-scaled"
	cfg.Layers = max(2, cfg.Layers/f)
	cfg.Hidden = max(32, cfg.Hidden/f)
	cfg.Heads = max(4, cfg.Heads/f)
	return cfg
}

// GTConfig returns the GT (Dwivedi–Bresson) configuration: 4 layers, hidden
// 128, 8 heads, Laplacian PE + SPD bias.
func GTConfig(inDim, outDim int, seed int64) Config {
	return Config{
		Name: "gt", Layers: 4, Hidden: 128, Heads: 8,
		InDim: inDim, OutDim: outDim, Dropout: 0.1,
		UseLapPE: true, LapDim: 8, UseSPDBias: true, Seed: seed,
	}
}

// NodeFormerLite returns a linear-attention transformer configuration used
// by the Fig. 1 reproduction (no structural bias; kernelized attention is
// selected via AttentionSpec at train time).
func NodeFormerLite(inDim, outDim int, seed int64) Config {
	return Config{
		Name: "nodeformer-lite", Layers: 4, Hidden: 64, Heads: 4,
		InDim: inDim, OutDim: outDim, Dropout: 0.1, Seed: seed,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
