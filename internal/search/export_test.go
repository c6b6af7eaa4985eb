package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// IndexDigest returns a sha256 over everything Build serializes: the full
// shard and heap arena bytes, each arena's Used() mark, and the avgDocLen
// the BM25 length normalization reads. Two builds with equal digests are
// indistinguishable to every query.
func IndexDigest(e *Engine) string {
	h := sha256.New()
	var word [8]byte
	for _, a := range [...]interface {
		Base() uint64
		Size() int
		Used() uint64
		ReadRaw(addr uint64, n int) []byte
	}{e.shard, e.heap} {
		h.Write(a.ReadRaw(a.Base(), a.Size()))
		binary.LittleEndian.PutUint64(word[:], a.Used())
		h.Write(word[:])
	}
	binary.LittleEndian.PutUint64(word[:], math.Float64bits(e.avgDocLen))
	h.Write(word[:])
	return hex.EncodeToString(h.Sum(nil))
}
