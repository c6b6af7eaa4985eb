package serving

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"searchmem/internal/obs"
	"searchmem/internal/stats"
)

// Golden digests of the serve path and the load engine, recorded on
// linux/amd64 before the concurrent fan-out and the linear-scan load driver
// were retired. They pin every served result (docs, scores, latency, flags),
// every per-stage metric and every LoadStats field bit for bit, so any
// change to the serve path's arithmetic, executor call order or merge order
// shows up here.
var (
	goldenServe = map[string]uint64{
		"healthy-cached": 0x8da96d19f523dfa2,
		"faulty-hedged":  0xb095f429497f7da4,
		"congested":      0x9dcc67e3738cee45,
	}
	goldenLoad = map[string]uint64{
		"healthy-cached/1":     0x636f30e14cf21d99,
		"healthy-cached/8":     0x4ccbb1fd0544bddd,
		"healthy-cached/97":    0x3ff3cd3292e00ccb,
		"healthy-cached/10000": 0xb46e37667b831c62,
		"faulty-hedged/1":      0x26355bfb487dc548,
		"faulty-hedged/8":      0xe8a57efe2b6b8b3c,
		"faulty-hedged/97":     0xe258edeb2b0fc3f3,
		"faulty-hedged/10000":  0x49107e9ed50ee76f,
		"congested/1":          0xffb6bab8a88c4a44,
		"congested/8":          0x98b2b1e33a7c36fe,
		"congested/97":         0x3586ed4519c390ec,
		"congested/10000":      0xc3abb1e86c1be793,
	}
	// goldenTrace is the Chrome-trace JSON of tracedGoldenRun.
	goldenTrace uint64 = 0x3c4aa9e852ff655a
)

// goldenDigest hashes the JSON encoding of vals (FNV-1a). encoding/json
// writes floats in their shortest round-trip form, so equal digests mean
// bit-equal values.
func goldenDigest(t *testing.T, vals ...any) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// goldenClusters are the pinned configurations: a healthy cluster with a
// warm cache tier, a fault-injected one with deadlines and hedging, and a
// cacheless one whose LeafCapacity makes congestion scale latency.
func goldenClusters() []struct {
	name string
	mk   func() *Cluster
} {
	hedged := DefaultConfig()
	hedged.LeafDeadlineNS = 8e6
	hedged.HedgeDelayNS = 4e6
	congested := DefaultConfig()
	congested.CacheSlots = 0
	congested.LeafCapacity = 16
	return []struct {
		name string
		mk   func() *Cluster
	}{
		{"healthy-cached", func() *Cluster { return testCluster(4096) }},
		{"faulty-hedged", func() *Cluster { return faultyCluster(hedged, 12, 7) }},
		{"congested", func() *Cluster { return NewCluster(congested, nil) }},
	}
}

// tracedGoldenRun serves a few queries through a traced faulty-hedged
// cluster with Serve, then a short closed loop through RunLoad, and returns
// the exported Chrome-trace JSON.
func tracedGoldenRun(t *testing.T) string {
	t.Helper()
	tracer := obs.NewTracer()
	c := tracedCluster(tracer, obs.NewRegistry())
	for q := uint32(0); q < 6; q++ {
		c.Serve(Query{Terms: []uint32{q * 17, q*31 + 2}})
	}
	c.Serve(Query{Terms: []uint32{0, 2}})
	RunLoad(c, 8, 10, 400, 1.1, 9)
	var b strings.Builder
	if err := obs.WriteChromeTrace(&b, tracer.Traces()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestServeGolden checks Serve results query by query, RunLoad's LoadStats
// and the cluster Metrics after each, and the traced run's Chrome-trace
// JSON against the recorded digests.
func TestServeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other architectures may fuse multiply-adds")
	}
	check := func(kind, key string, want map[string]uint64, got uint64) {
		t.Helper()
		if w, ok := want[key]; !ok || w != got {
			t.Errorf("%s %s: digest %#x, want %#x (recorded %v)", kind, key, got, w, ok)
		}
	}
	for _, gc := range goldenClusters() {
		c := gc.mk()
		rng := stats.NewRNG(41)
		zipf := stats.NewZipf(rng.Split(), 300, 1.1)
		var results []Result
		for q := 0; q < 400; q++ {
			qid := zipf.Next()
			results = append(results, c.Serve(Query{Terms: []uint32{uint32(qid), uint32(qid>>3) % 300}}))
		}
		check("serve", gc.name, goldenServe, goldenDigest(t, results, c.Metrics()))

		clientCounts := []int{1, 8, 97}
		if !testing.Short() {
			clientCounts = append(clientCounts, 10000)
		}
		for _, clients := range clientCounts {
			qpc := 50
			switch {
			case clients >= 10000:
				qpc = 2
			case clients >= 97:
				qpc = 4
			}
			c := gc.mk()
			st := RunLoad(c, clients, qpc, 400, 1.1, 9)
			key := fmt.Sprintf("%s/%d", gc.name, clients)
			check("load", key, goldenLoad, goldenDigest(t, st, c.Metrics()))
		}
	}
	h := fnv.New64a()
	h.Write([]byte(tracedGoldenRun(t)))
	if got := h.Sum64(); got != goldenTrace {
		t.Errorf("traced run: Chrome-trace digest %#x, want %#x", got, goldenTrace)
	}
}
