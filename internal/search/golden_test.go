package search_test

import (
	"runtime"
	"testing"

	"searchmem/internal/det"
	"searchmem/internal/memsim"
	"searchmem/internal/search"
	"searchmem/internal/workload"
)

// Golden index digests (IndexDigest: sha256 over the shard and heap arena
// bytes, their Used() marks and avgDocLen), recorded on linux/amd64 from
// the map-and-append inversion before the counting-sort build replaced it.
// Any change to corpus generation, inversion order, varint layout, skip or
// dictionary records, norms, statics or features shows up here.
var (
	goldenIndex = map[string]string{
		"default":       "8e107ea49b7897180e179e76b83045217e21ea1109be2a96d3c6daa0d31e50a8",
		"S1-leaf":       "876fca5956ee8fe0ce5d233624b632dce56b4656229d55d8f25d75188476b92f",
		"S2-leaf":       "5d78762ea7e22902ab894b0448d2ae9fcbf0bc4a32fe4e3be940d4614bd09437",
		"S3-leaf":       "1ea141f1f204aaa3db445c9012f135deb30b2467e14f0658a12ca61b464ea6b9",
		"S1-root":       "fb0b0d71929d3ecc9c4c4b411bd83710c21d2e60392c82a6eca94ee2e25ea7d3",
		"S2-root":       "7565c969921f5372a5ce1044436a6c4454e2275560a3d8cb82a22503ccde8776",
		"S3-root":       "b7088fdf00a3ea7b0b65cdea9f824d6f29e2146a2bfabd649393595cb047f535",
		"S1-leaf-sweep": "3a2584d034d0e1d9bbc83f8f618224e73a7bd441781b856bb774816b5120ef71",
	}
	goldenIndexShort = map[string]string{
		"default":       "8e107ea49b7897180e179e76b83045217e21ea1109be2a96d3c6daa0d31e50a8",
		"S1-leaf":       "15a996a324dee950ffaf347d13f46af8ba4cfb4d48ab628bd3ba4bbad17c6267",
		"S2-leaf":       "a20db39f8c48a7f6c127cd43c678b03e6509e125ec89fb598093ca7938ded067",
		"S3-leaf":       "db9653cedb22029aa30efb4b75f5b81880be6f91b70aaf7646dc42f2c21b4631",
		"S1-root":       "d64846795299d6ba128e2517bf299c9fb0a7215fe22b0192215fa2749f85ea4d",
		"S2-root":       "f77a2be5bb594a8bd923cb532842b369d6ffbd2113526572826a635916de729e",
		"S3-root":       "31947e7c2e008cf74d745360eacedab5952d271ec12695011e83bdf1380fdd32",
		"S1-leaf-sweep": "4a2dbc9dcd9285df28ea80067d4a7b3f6804403c000049b31966a7c2ff833926",
	}
)

// goldenEngines returns the pinned engine configurations: the default test
// engine plus the six Table I profiles and the capacity-sweep leaf at the
// given shrink.
func goldenEngines(shrink int) map[string]search.Config {
	out := map[string]search.Config{"default": search.DefaultConfig()}
	for _, wl := range []workload.SearchWorkload{
		workload.S1Leaf(shrink), workload.S2Leaf(shrink), workload.S3Leaf(shrink),
		workload.S1Root(shrink), workload.S2Root(shrink), workload.S3Root(shrink),
		workload.S1LeafSweep(shrink),
	} {
		out[wl.WLName] = wl.Engine
	}
	return out
}

// TestIndexGolden pins the serialized index of every engine configuration
// the experiments build, byte for byte.
func TestIndexGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds in corpus generation")
	}
	shrink, golden := 8, goldenIndex
	if testing.Short() {
		shrink, golden = 64, goldenIndexShort
	}
	engines := goldenEngines(shrink)
	if len(engines) != len(golden) {
		t.Fatalf("%d engine configurations, %d golden digests", len(engines), len(golden))
	}
	for _, name := range det.SortedKeys(engines) {
		e, _ := search.Build(engines[name], memsim.NewSpace(nil), nil)
		if got := search.IndexDigest(e); got != golden[name] {
			t.Errorf("%s (shrink %d): index digest %s, want %s", name, shrink, got, golden[name])
		}
	}
}
