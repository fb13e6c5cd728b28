package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"purec/internal/apps"
	"purec/internal/transform"
)

// frontGolden pins what the front end prints for every application
// source under the three polyhedral modes: sha256 over Stages.Transformed,
// Stages.Final and Report.String(). The digests were recorded at the
// commit before poly's eliminator was replaced by the dense-row kernel
// (PR 13); a change to any of them means generated code, loop bounds,
// pragmas or the report moved, which also moves what a disk-cache entry
// holds. Re-record (the failure message prints the new digest) only for
// a change that is meant to alter the output.
var frontGolden = map[string]string{
	"matmul/default":           "739f78bd8247e738df8e13e25d25a128c7e81286188e0349a946a35e30778387",
	"matmul/tile":              "5bfb1b77e2336029aa713c8a2d125cac723c38707a66d1f8f7d144baa7cbd7d3",
	"matmul/skew":              "739f78bd8247e738df8e13e25d25a128c7e81286188e0349a946a35e30778387",
	"matmul-noinitpar/default": "c20a07e97c33e5080e70db0ab0f163f2b868cb4b350b66354b71c9b09933cabc",
	"matmul-noinitpar/tile":    "3e880dc76490a747570af7f1e257b13d93a54072e07558330c4f4d65d3df2356",
	"matmul-noinitpar/skew":    "c20a07e97c33e5080e70db0ab0f163f2b868cb4b350b66354b71c9b09933cabc",
	"matmul-inlined/default":   "81172f646a7df24d89ad070e5f9cf36cf0bf74f67c3190f2d176e6993023ff68",
	"matmul-inlined/tile":      "5138576e307b480762a8b8323bf9c3c383c01b8325871a82db48061a348cafdc",
	"matmul-inlined/skew":      "81172f646a7df24d89ad070e5f9cf36cf0bf74f67c3190f2d176e6993023ff68",
	"matmul-kern/default":      "b139ea17199ecfe6293f5a15b4d6725eb52caab24c12526579554112dd4fa5fd",
	"matmul-kern/tile":         "226226a6cc90ce67c30be98e64dfd83c276ceb1c5e26aaea2454f5afe908ecfc",
	"matmul-kern/skew":         "b139ea17199ecfe6293f5a15b4d6725eb52caab24c12526579554112dd4fa5fd",
	"heat/default":             "31aade317e65a0be4dc3e3c16e8d5877d98cf520f7216bae08078a12fb2a6bf4",
	"heat/tile":                "5c8c8e6737d35ce01133ad2a32812d51e7931292082e7520e56c6f3d79073548",
	"heat/skew":                "31aade317e65a0be4dc3e3c16e8d5877d98cf520f7216bae08078a12fb2a6bf4",
	"heat-inlined/default":     "3e775e401423b469b137199c37ab9531083a4ee1600bad2481a6b927dd7641bd",
	"heat-inlined/tile":        "2535ec9a6f99b40740a83977ffd60eb5db4b28b8a855c079de3dd505d343432b",
	"heat-inlined/skew":        "3e775e401423b469b137199c37ab9531083a4ee1600bad2481a6b927dd7641bd",
	"satellite/default":        "1834efa769f1765b087799818815c849bbae62c34674bf4cfa1c2694a0f3bd84",
	"satellite/tile":           "1834efa769f1765b087799818815c849bbae62c34674bf4cfa1c2694a0f3bd84",
	"satellite/skew":           "1834efa769f1765b087799818815c849bbae62c34674bf4cfa1c2694a0f3bd84",
	"memosat/default":          "a266bcca514eed210c01b1ee2d8f1c53ad704c88fc4026fca3badb5dfb6f6e27",
	"memosat/tile":             "a266bcca514eed210c01b1ee2d8f1c53ad704c88fc4026fca3badb5dfb6f6e27",
	"memosat/skew":             "a266bcca514eed210c01b1ee2d8f1c53ad704c88fc4026fca3badb5dfb6f6e27",
	"lama/default":             "384a098aa3f6982df8fa0aa87eed4fc9a6ccc3762968fab867d7cc6553d1477b",
	"lama/tile":                "384a098aa3f6982df8fa0aa87eed4fc9a6ccc3762968fab867d7cc6553d1477b",
	"lama/skew":                "384a098aa3f6982df8fa0aa87eed4fc9a6ccc3762968fab867d7cc6553d1477b",
	"lama-manual/default":      "721b6e480d9f87c020a4cc1ccf223da0b906669a40436e12a972cd4da99b91e1",
	"lama-manual/tile":         "721b6e480d9f87c020a4cc1ccf223da0b906669a40436e12a972cd4da99b91e1",
	"lama-manual/skew":         "721b6e480d9f87c020a4cc1ccf223da0b906669a40436e12a972cd4da99b91e1",
	"reduce-sum/default":       "918ccccfd83828eb476977b9af1640e89b67d7b5f5627bb2328fd931e0ce988d",
	"reduce-sum/tile":          "918ccccfd83828eb476977b9af1640e89b67d7b5f5627bb2328fd931e0ce988d",
	"reduce-sum/skew":          "918ccccfd83828eb476977b9af1640e89b67d7b5f5627bb2328fd931e0ce988d",
	"reduce-dot/default":       "3c4679d5ac3d84363e83016a5e20b8b3eaaef75f81b7e6260497aa585e663d68",
	"reduce-dot/tile":          "3c4679d5ac3d84363e83016a5e20b8b3eaaef75f81b7e6260497aa585e663d68",
	"reduce-dot/skew":          "3c4679d5ac3d84363e83016a5e20b8b3eaaef75f81b7e6260497aa585e663d68",
	"axpy/default":             "05a17f222ea19e02009d932d305975b35b83792c7d560b797d9e75a0bd834823",
	"axpy/tile":                "f8f4f33d5bd0571dd48fdca309668e0d149bbcd8ef4b5beabf1b7e290a0e4924",
	"axpy/skew":                "05a17f222ea19e02009d932d305975b35b83792c7d560b797d9e75a0bd834823",
	"copy/default":             "dd5e68eb01ac9464772b7203f42bcbfd7b053af511c0af60401bbcd3d901d938",
	"copy/tile":                "eddaa27a15f624344ff1108f246b9376e1930aad0d50f164283150343680a33e",
	"copy/skew":                "dd5e68eb01ac9464772b7203f42bcbfd7b053af511c0af60401bbcd3d901d938",
	"stencil/default":          "15ab764405d95f8703078384d8994db435104cd1f7e65d050cfba88761b7e2ec",
	"stencil/tile":             "d5b46beea8e30d31ab7da62d69d2efe6f5144026bfabe65f672fc4579ab337bd",
	"stencil/skew":             "15ab764405d95f8703078384d8994db435104cd1f7e65d050cfba88761b7e2ec",
	"noncanon/default":         "5bb03515919e7fcd0a00856ef20494340fa40a85afd6878a4682d746535074b4",
	"noncanon/tile":            "5bb03515919e7fcd0a00856ef20494340fa40a85afd6878a4682d746535074b4",
	"noncanon/skew":            "5bb03515919e7fcd0a00856ef20494340fa40a85afd6878a4682d746535074b4",
	"histogram/default":        "fb5da4cf2f2fc15d2e57660f0bc524b56fa9cd0c6f1a3cc6742358eb8864474d",
	"histogram/tile":           "fb5da4cf2f2fc15d2e57660f0bc524b56fa9cd0c6f1a3cc6742358eb8864474d",
	"histogram/skew":           "fb5da4cf2f2fc15d2e57660f0bc524b56fa9cd0c6f1a3cc6742358eb8864474d",
	"sparsehist/default":       "ac3299fed81311d951d4a592d230168e2d99b194889490d33e80cc9f3e1f0974",
	"sparsehist/tile":          "ac3299fed81311d951d4a592d230168e2d99b194889490d33e80cc9f3e1f0974",
	"sparsehist/skew":          "ac3299fed81311d951d4a592d230168e2d99b194889490d33e80cc9f3e1f0974",
	"gather/default":           "67831aabcd7bff64f55220caa2c7a9c5f44aa9ed9ee5ca0d3c706f256858ae55",
	"gather/tile":              "a5daf0b65173728ceaa35ec9ac7eae23de95d8d541ee11c7796b449d5e08eb95",
	"gather/skew":              "67831aabcd7bff64f55220caa2c7a9c5f44aa9ed9ee5ca0d3c706f256858ae55",
	"gather-opaque/default":    "2a312b87a988837bb034f07fb3a23f8e407ab89c20409c0d10c0543c48fb7a75",
	"gather-opaque/tile":       "50eb5ccce1ac8bd42c592ce23057a88c125a25513a779cd283d8c5ed8cd10cc6",
	"gather-opaque/skew":       "2a312b87a988837bb034f07fb3a23f8e407ab89c20409c0d10c0543c48fb7a75",
	"derived/default":          "acc6fea5a7773c3bdbe66b661b287d3c077002fba6fe697247ec998c0ee2f21f",
	"derived/tile":             "359b9d0096ebf1c92f40d695614d15c25f0f20ed587c7575bc9408b7ac73af1f",
	"derived/skew":             "acc6fea5a7773c3bdbe66b661b287d3c077002fba6fe697247ec998c0ee2f21f",
	"clamp-gather/default":     "ea4f3fc04d918fb034a2234f4570005eb42e620a22c5f99c57fd9ede3e8caa4c",
	"clamp-gather/tile":        "d7972f5198ca0695bf23d3a6d4ab072c822efeb3105d31d65e78ac9ac4ec96bf",
	"clamp-gather/skew":        "ea4f3fc04d918fb034a2234f4570005eb42e620a22c5f99c57fd9ede3e8caa4c",
	"ptr-scale/default":        "208049ff469fd7a15f98ca54fea71fc31d3637bb459fb7e6695a26f988fdecb8",
	"ptr-scale/tile":           "5224c9a2e4260f651c952e7232750a4293bc1d255490db84bd72334beec7826a",
	"ptr-scale/skew":           "208049ff469fd7a15f98ca54fea71fc31d3637bb459fb7e6695a26f988fdecb8",
	"aliased-pair/default":     "62ab855ecd42f11f9faa674ade4edebe625506208fb6876322fb0b719aa3e3fb",
	"aliased-pair/tile":        "62ab855ecd42f11f9faa674ade4edebe625506208fb6876322fb0b719aa3e3fb",
	"aliased-pair/skew":        "81b53f0ed21802c07fe22e6f0c0f8eab8f0f31f4e0096f72a65933411e41c1e1",
}

func TestFrontGoldenDigests(t *testing.T) {
	modes := []struct {
		name string
		opts transform.Options
	}{
		{"default", transform.Options{}},
		{"tile", transform.Options{Tile: true}},
		{"skew", transform.Options{Skew: true}},
	}
	for _, s := range apps.Corpus() {
		for _, m := range modes {
			key := s.Name + "/" + m.name
			art, err := Front(s.Src, Config{Parallelize: true, Defines: s.Defines, Transform: m.opts})
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			h := sha256.New()
			h.Write([]byte(art.Stages.Transformed))
			h.Write([]byte{0})
			h.Write([]byte(art.Stages.Final))
			h.Write([]byte{0})
			h.Write([]byte(art.Report.String()))
			if got := hex.EncodeToString(h.Sum(nil)); got != frontGolden[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}
