package search

import (
	"encoding/binary"
	"slices"
	"testing"

	"searchmem/internal/memsim"
)

// naivePosting is one (document, term-frequency) pair of the reference
// inversion.
type naivePosting struct {
	doc, tf uint32
}

// naiveInversion inverts the corpus the obvious way, independently of
// buildPostings: each document's terms are sorted and run-length counted,
// and every (term, count) run becomes one posting appended in document
// order.
func naiveInversion(c *Corpus) [][]naivePosting {
	lists := make([][]naivePosting, c.cfg.VocabSize)
	var sorted []uint32
	for d, doc := range c.Docs {
		sorted = append(sorted[:0], doc...)
		slices.Sort(sorted)
		for i := 0; i < len(sorted); {
			j := i
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			lists[sorted[i]] = append(lists[sorted[i]], naivePosting{doc: uint32(d), tf: uint32(j - i)})
			i = j
		}
	}
	return lists
}

// checkIndex decodes everything Build serialized and compares it with a
// naive inversion of the corpus: every posting list (through its dictionary
// record), every skip entry, every document's metadata record and content,
// the norms and the average document length.
func checkIndex(t testing.TB, e *Engine, c *Corpus) {
	t.Helper()
	lists := naiveInversion(c)

	var terms int64
	for _, list := range lists {
		for _, p := range list {
			terms += int64(p.tf)
		}
	}
	if terms != c.TotalTerms {
		t.Fatalf("naive inversion holds %d term occurrences, corpus %d", terms, c.TotalTerms)
	}

	// Posting lists are laid out back to back from postingsBase, and
	// their skip entries back to back from skipBase.
	var wantOff, wantSkipOff uint64
	for term, want := range lists {
		off, docFreq, nBytes := e.dictEntry(0, uint32(term))
		skipOff := binary.LittleEndian.Uint64(e.heap.ReadRaw(e.dictBase+uint64(term)*dictRecBytes+16, 8))
		if off != wantOff || skipOff != wantSkipOff || int(docFreq) != len(want) {
			t.Fatalf("term %d: dict record (off %d, skip off %d, df %d), want (%d, %d, %d)",
				term, off, skipOff, docFreq, wantOff, wantSkipOff, len(want))
		}
		buf := e.shard.ReadRaw(e.postingsBase+off, int(nBytes))
		pos, prev := 0, uint32(0)
		for i, p := range want {
			if i%SkipInterval == 0 {
				block := i / SkipInterval
				byteOff, restart := e.skipEntry(0, uint32(term), block)
				rec := e.heap.ReadRaw(e.skipBase+skipOff+uint64(block)*skipRecBytes, skipRecBytes)
				if byteOff != uint64(pos) || restart != prev || binary.LittleEndian.Uint32(rec[12:]) != 0 {
					t.Fatalf("term %d skip block %d: (byte off %d, restart %d, pad %d), want (%d, %d, 0)",
						term, block, byteOff, restart, binary.LittleEndian.Uint32(rec[12:]), pos, prev)
				}
				wantSkipOff += skipRecBytes
			}
			delta, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				t.Fatalf("term %d posting %d: bad doc-delta varint", term, i)
			}
			pos += n
			tf, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				t.Fatalf("term %d posting %d: bad tf varint", term, i)
			}
			pos += n
			doc := prev + uint32(delta)
			if doc != p.doc || uint32(tf) != p.tf {
				t.Fatalf("term %d posting %d: (doc %d, tf %d), want (%d, %d)", term, i, doc, tf, p.doc, p.tf)
			}
			prev = doc
		}
		if pos != len(buf) {
			t.Fatalf("term %d: decoded %d of %d posting bytes", term, pos, len(buf))
		}
		wantOff += uint64(nBytes)
	}
	if e.postingsBase != e.shard.Base() || e.contentBase != e.postingsBase+wantOff {
		t.Fatalf("shard layout: postings at +%d, content at +%d, want +0 and +%d",
			e.postingsBase-e.shard.Base(), e.contentBase-e.shard.Base(), wantOff)
	}

	// Documents are laid out back to back from contentBase.
	var contentOff uint64
	for d, doc := range c.Docs {
		rec := e.heap.ReadRaw(e.metaBase+uint64(d)*metaRecBytes, metaRecBytes)
		off, nBytes := e.contentRef(0, uint32(d))
		if off != contentOff || int(binary.LittleEndian.Uint32(rec[12:])) != len(doc) {
			t.Fatalf("doc %d: meta (off %d, len %d), want (%d, %d)",
				d, off, binary.LittleEndian.Uint32(rec[12:]), contentOff, len(doc))
		}
		buf := e.shard.ReadRaw(e.contentBase+off, int(nBytes))
		pos := 0
		for i, want := range doc {
			term, n := binary.Uvarint(buf[pos:])
			if n <= 0 || uint32(term) != want {
				t.Fatalf("doc %d term %d: decoded %d (varint length %d), want %d", d, i, term, n, want)
			}
			pos += n
		}
		if pos != len(buf) {
			t.Fatalf("doc %d: decoded %d of %d content bytes", d, pos, len(buf))
		}
		if got, want := e.docLen(0, uint32(d)), QuantizedDocLen(len(doc)); got != want {
			t.Fatalf("doc %d: norm length %d, want %d", d, got, want)
		}
		contentOff += uint64(nBytes)
	}
	if used := wantOff + contentOff; e.shard.Used() != used || e.shard.Size() != max(int(used), 1) {
		t.Fatalf("shard: %d of %d bytes used, want %d", e.shard.Used(), e.shard.Size(), used)
	}
	if want := float64(c.TotalTerms) / float64(e.cfg.Corpus.NumDocs); e.avgDocLen != want {
		t.Fatalf("avgDocLen %v, want %v", e.avgDocLen, want)
	}
}

// TestIndexDecodesToNaiveInversion checks the serialized index against an
// independent inversion: the default engine (long lists spanning several
// skip blocks), the small test engine, and a corpus of one-term average
// length, where many documents are empty.
func TestIndexDecodesToNaiveInversion(t *testing.T) {
	tiny := testEngineConfig()
	tiny.Corpus.AvgDocLen = 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"test", testEngineConfig()},
		{"tiny", tiny},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, c := Build(tc.cfg, memsim.NewSpace(nil), nil)
			if tc.name == "tiny" && !slices.ContainsFunc(c.Docs, func(d []uint32) bool { return len(d) == 0 }) {
				t.Fatal("tiny corpus has no empty document")
			}
			checkIndex(t, e, c)
		})
	}
}

// FuzzSearchBuild fuzzes the engine configuration. The contract: a config
// that passes Validate builds without panicking, two builds are
// byte-identical, and the serialized index decodes to the naive inversion.
// Sizes are bounded (NumDocs <= 2000, VocabSize <= 4000, AvgDocLen in
// 1..96, skew in (0, 2]) so each input builds in milliseconds; AccumSlots
// and MaxSessions are passed through unvetted, so Validate decides.
func FuzzSearchBuild(f *testing.F) {
	f.Add(uint16(1999), uint16(2999), uint8(39), uint16(999), uint16(1<<10), uint8(4), uint64(0x7e57))
	f.Add(uint16(300), uint16(50), uint8(0), uint16(1999), uint16(64), uint8(1), uint64(1))
	f.Add(uint16(0), uint16(0), uint8(95), uint16(0), uint16(1), uint8(9), uint64(2))
	f.Fuzz(func(t *testing.T, docs, vocab uint16, avgLen uint8, skew, accumSlots uint16, sessions uint8, seed uint64) {
		cfg := DefaultConfig()
		cfg.Corpus = CorpusConfig{
			NumDocs:      1 + int(docs)%2000,
			VocabSize:    1 + int(vocab)%4000,
			AvgDocLen:    1 + int(avgLen)%96,
			TermZipfSkew: float64(1+skew%2000) / 1000,
			Seed:         seed,
		}
		cfg.AccumSlots = int(accumSlots) % 4096
		cfg.MaxSessions = int(sessions) % 10
		if cfg.Validate() != nil {
			return
		}
		e, c := Build(cfg, memsim.NewSpace(nil), nil)
		again, _ := Build(cfg, memsim.NewSpace(nil), nil)
		if IndexDigest(e) != IndexDigest(again) {
			t.Fatalf("two builds of %+v differ", cfg.Corpus)
		}
		checkIndex(t, e, c)
	})
}
