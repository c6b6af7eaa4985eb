package search

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"searchmem/internal/codegen"
	"searchmem/internal/memsim"
	"searchmem/internal/stats"
	"searchmem/internal/trace"
)

// Record sizes of the serialized structures.
const (
	dictRecBytes   = 24 // postings off u64 | docFreq u32 | bytes u32 | skip off u64
	metaRecBytes   = 16 // content offset u64 | content bytes u32 | doc length u32
	staticRecBytes = 16 // pagerank-class static signals, read per candidate
	skipRecBytes   = 16 // block byte offset u64 | restart doc u32 | pad u32
	accumSlot      = 12 // docID u32 | epoch u32 | score f32
	// SkipInterval is the posting count per skip block. Long posting
	// lists are entered at a query-dependent skip block rather than
	// always at the head, so bounded scans cover the whole document
	// space (as WAND-style skipping does in production rankers).
	SkipInterval = 4096
)

// Config describes a full search-engine instance.
type Config struct {
	// Corpus is the document collection to index.
	Corpus CorpusConfig
	// MaxPostingsPerTerm bounds how much of a posting list one query
	// scans (early termination, as production rankers do).
	MaxPostingsPerTerm int
	// TopK is the number of results returned per query.
	TopK int
	// FeatureBytes is the per-document ranking-feature blob size; blobs
	// live in the heap and are read for final scoring of top candidates.
	FeatureBytes int
	// AccumSlots is the per-session score-accumulator table size (a power
	// of two).
	AccumSlots int
	// MaxSessions bounds concurrent sessions (arena space for their
	// accumulators is reserved at build time).
	MaxSessions int
	// QueryCacheSlots sizes the in-heap query result cache (a power of
	// two; 0 disables caching).
	QueryCacheSlots int
	// SnippetTerms is how many content terms are scanned per result for
	// snippet extraction.
	SnippetTerms int
	// HotCodeFrac is the fraction of each phase's instructions spent in
	// that phase's pinned hot function; the rest walks the wide
	// (Zipf-popular) service code. It is the main calibration knob for
	// the paper's large instruction working set (L2 instruction MPKI ~12
	// despite hot inner loops).
	HotCodeFrac float64
	// K1 and B are the BM25 parameters.
	K1, B float64
	// Instruction-cost model: modeled instructions charged per unit of
	// work, used to drive the code walker and to form MPKI denominators.
	InstrsPerQuery       int
	InstrsPerPosting     int
	InstrsPerScore       int
	InstrsPerSnippetTerm int
}

// DefaultConfig returns a test-sized engine configuration.
func DefaultConfig() Config {
	return Config{
		Corpus:               DefaultCorpusConfig(),
		MaxPostingsPerTerm:   4096,
		TopK:                 10,
		FeatureBytes:         96,
		AccumSlots:           1 << 15,
		MaxSessions:          16,
		QueryCacheSlots:      1 << 12,
		SnippetTerms:         32,
		K1:                   1.2,
		B:                    0.75,
		HotCodeFrac:          0.20,
		InstrsPerQuery:       2400,
		InstrsPerPosting:     20,
		InstrsPerScore:       40,
		InstrsPerSnippetTerm: 8,
	}
}

// Validate reports whether the configuration is consistent.
func (c Config) Validate() error {
	if err := c.Corpus.Validate(); err != nil {
		return err
	}
	if c.MaxPostingsPerTerm <= 0 || c.TopK <= 0 || c.FeatureBytes <= 0 {
		return fmt.Errorf("search: limits must be positive")
	}
	if c.AccumSlots <= 0 || c.AccumSlots&(c.AccumSlots-1) != 0 {
		return fmt.Errorf("search: AccumSlots must be a positive power of two")
	}
	if c.QueryCacheSlots < 0 || (c.QueryCacheSlots > 0 && c.QueryCacheSlots&(c.QueryCacheSlots-1) != 0) {
		return fmt.Errorf("search: QueryCacheSlots must be zero or a power of two")
	}
	if c.MaxSessions <= 0 || c.MaxSessions > 256 {
		return fmt.Errorf("search: MaxSessions out of range")
	}
	if c.K1 <= 0 || c.B < 0 || c.B > 1 {
		return fmt.Errorf("search: BM25 parameters out of range")
	}
	if c.SnippetTerms < 0 {
		return fmt.Errorf("search: SnippetTerms must be non-negative")
	}
	if c.HotCodeFrac < 0 || c.HotCodeFrac > 1 {
		return fmt.Errorf("search: HotCodeFrac must be in [0,1]")
	}
	return nil
}

// Engine is a built, immutable (post-construction) search index bound to an
// instrumented address space. Query execution happens through Sessions.
type Engine struct {
	cfg   Config
	space *memsim.Space
	shard *memsim.Arena // posting lists + document content
	heap  *memsim.Arena // dictionary, doc metadata, features, query cache

	postingsBase uint64
	contentBase  uint64
	dictBase     uint64
	skipBase     uint64
	normsBase    uint64
	staticBase   uint64
	metaBase     uint64
	featBase     uint64
	cacheBase    uint64
	accumBase    uint64

	numDocs   uint32
	avgDocLen float64
	sessions  int

	prog *codegen.Program
}

// Build generates a corpus, indexes it, and serializes everything into
// arenas carved from space. prog may be nil to skip instruction-side
// modeling. It returns the engine and the generated corpus (kept only for
// verification; the serving path never touches it).
func Build(cfg Config, space *memsim.Space, prog *codegen.Program) (*Engine, *Corpus) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	corpus := GenerateCorpus(cfg.Corpus)
	inv := buildPostings(corpus)

	// Size every serialized buffer exactly first, so each is allocated
	// once and never grows.
	postingBytes, numSkips := 0, 0
	for t := 0; t < cfg.Corpus.VocabSize; t++ {
		docs, tfs := inv.list(t)
		prev := uint32(0)
		for i, doc := range docs {
			postingBytes += uvarintLen(doc-prev) + uvarintLen(tfs[i])
			prev = doc
		}
		numSkips += (len(docs) + SkipInterval - 1) / SkipInterval
	}
	contentBytes := 0
	for _, doc := range corpus.Docs {
		for _, term := range doc {
			contentBytes += uvarintLen(term)
		}
	}

	// Serialize posting lists: per list, (docDelta, tf) uvarint pairs,
	// with a skip entry every SkipInterval postings recording the byte
	// offset and the restart document (the previous posting's doc, so
	// delta decoding can resume mid-list).
	postings := make([]byte, 0, postingBytes)
	skips := make([]byte, numSkips*skipRecBytes)
	dictRecs := make([]byte, cfg.Corpus.VocabSize*dictRecBytes)
	skipOff := 0
	for t := 0; t < cfg.Corpus.VocabSize; t++ {
		docs, tfs := inv.list(t)
		off := uint64(len(postings))
		rec := dictRecs[t*dictRecBytes:]
		binary.LittleEndian.PutUint64(rec, off)
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(docs)))
		binary.LittleEndian.PutUint64(rec[16:], uint64(skipOff))
		prev := uint32(0)
		for i, doc := range docs {
			if i%SkipInterval == 0 {
				binary.LittleEndian.PutUint64(skips[skipOff:], uint64(len(postings))-off)
				binary.LittleEndian.PutUint32(skips[skipOff+8:], prev)
				skipOff += skipRecBytes
			}
			postings = binary.AppendUvarint(postings, uint64(doc-prev))
			postings = binary.AppendUvarint(postings, uint64(tfs[i]))
			prev = doc
		}
		binary.LittleEndian.PutUint32(rec[12:], uint32(uint64(len(postings))-off))
	}

	// Serialize document content (term-id uvarints) and metadata.
	content := make([]byte, 0, contentBytes)
	metaRecs := make([]byte, cfg.Corpus.NumDocs*metaRecBytes)
	for d, doc := range corpus.Docs {
		off := uint64(len(content))
		for _, term := range doc {
			content = binary.AppendUvarint(content, uint64(term))
		}
		rec := metaRecs[d*metaRecBytes:]
		binary.LittleEndian.PutUint64(rec, off)
		binary.LittleEndian.PutUint32(rec[8:], uint32(uint64(len(content))-off))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(doc)))
	}

	// Lay out the shard arena: postings then content. A corpus of empty
	// documents serializes nothing, but an arena needs at least one byte.
	shard := space.NewArena("shard", trace.Shard, max(len(postings)+len(content), 1))
	e := &Engine{
		cfg:       cfg,
		space:     space,
		shard:     shard,
		numDocs:   uint32(cfg.Corpus.NumDocs),
		avgDocLen: corpus.AvgDocLen(),
		prog:      prog,
	}
	e.postingsBase = shard.Alloc(len(postings), 0)
	shard.WriteRaw(e.postingsBase, postings)
	e.contentBase = shard.Alloc(len(content), 0)
	shard.WriteRaw(e.contentBase, content)

	// Lay out the heap arena: dictionary, doc metadata, features, query
	// cache, then per-session accumulator tables.
	cacheBytes := 0
	if cfg.QueryCacheSlots > 0 {
		cacheBytes = cfg.QueryCacheSlots * e.cacheSlotBytes()
	}
	heapBytes := len(dictRecs) + len(skips) + len(metaRecs) + cfg.Corpus.NumDocs + cfg.Corpus.NumDocs*staticRecBytes +
		cfg.Corpus.NumDocs*cfg.FeatureBytes + cacheBytes +
		cfg.MaxSessions*cfg.AccumSlots*accumSlot + 64*cfg.MaxSessions
	heap := space.NewArena("heap", trace.Heap, heapBytes)
	e.heap = heap

	e.dictBase = heap.Alloc(len(dictRecs), 8)
	heap.WriteRaw(e.dictBase, dictRecs)
	e.skipBase = heap.Alloc(len(skips), 8)
	heap.WriteRaw(e.skipBase, skips)

	// Quantized document-length norms: one byte per document, read on
	// every posting scored (so it must stay cache-resident, as real
	// engines arrange). dl is reconstructed as norm << 2.
	norms := make([]byte, cfg.Corpus.NumDocs)
	for d, doc := range corpus.Docs {
		n := (len(doc) + 2) >> 2
		if n > 255 {
			n = 255
		}
		norms[d] = byte(n)
	}
	e.normsBase = heap.Alloc(len(norms), 8)
	heap.WriteRaw(e.normsBase, norms)

	// Static document-rank records (pagerank-class signals): read for
	// every posting scored. This table is the bulk of the hot shared heap
	// working set whose reuse the paper finds is only capturable by
	// GiB-scale caches (§III-B).
	srng := stats.NewRNG(cfg.Corpus.Seed ^ 0x57a71c)
	statics := make([]byte, cfg.Corpus.NumDocs*staticRecBytes)
	for d := 0; d < cfg.Corpus.NumDocs; d++ {
		binary.LittleEndian.PutUint64(statics[d*staticRecBytes:], srng.Uint64())
		binary.LittleEndian.PutUint64(statics[d*staticRecBytes+8:], srng.Uint64())
	}
	e.staticBase = heap.Alloc(len(statics), 8)
	heap.WriteRaw(e.staticBase, statics)

	e.metaBase = heap.Alloc(len(metaRecs), 8)
	heap.WriteRaw(e.metaBase, metaRecs)

	// Ranking features: deterministic pseudo-random blobs.
	featBytes := cfg.Corpus.NumDocs * cfg.FeatureBytes
	e.featBase = heap.Alloc(featBytes, 8)
	frng := stats.NewRNG(cfg.Corpus.Seed ^ 0xfea7)
	blob := make([]byte, cfg.FeatureBytes)
	for d := 0; d < cfg.Corpus.NumDocs; d++ {
		for i := 0; i < len(blob); i += 8 {
			binary.LittleEndian.PutUint64(blob[i:], frng.Uint64())
		}
		heap.WriteRaw(e.featBase+uint64(d*cfg.FeatureBytes), blob)
	}

	if cacheBytes > 0 {
		e.cacheBase = heap.Alloc(cacheBytes, 8)
	}
	e.accumBase = heap.Alloc(cfg.MaxSessions*cfg.AccumSlots*accumSlot, 64)
	return e, corpus
}

// uvarintLen returns the encoded length of x as a uvarint.
func uvarintLen(x uint32) int {
	return (bits.Len32(x|1) + 6) / 7
}

// cacheSlotBytes returns the query-cache slot size: tag u64 | count u32 |
// TopK result ids, rounded up to 8.
func (e *Engine) cacheSlotBytes() int {
	n := 8 + 4 + 4*e.cfg.TopK
	return (n + 7) &^ 7
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// NumDocs returns the number of indexed documents.
func (e *Engine) NumDocs() int { return int(e.numDocs) }

// Space returns the engine's address space.
func (e *Engine) Space() *memsim.Space { return e.space }

// ShardBytes returns the serialized shard size.
func (e *Engine) ShardBytes() int { return e.shard.Size() }

// HeapBytes returns the heap arena size.
func (e *Engine) HeapBytes() int { return e.heap.Size() }

// dictEntry reads one term's dictionary record through the instrumented
// heap (two 8-byte reads, as a real lookup would issue; the skip-table
// offset rides in the third word, read only for long lists).
func (e *Engine) dictEntry(tid uint8, term uint32) (off uint64, docFreq, nBytes uint32) {
	addr := e.dictBase + uint64(term)*dictRecBytes
	off = e.heap.ReadU64(tid, addr)
	word := e.heap.ReadU64(tid, addr+8)
	return off, uint32(word), uint32(word >> 32)
}

// skipEntry reads skip block b of a term whose dictionary record sits at
// skipOff, returning the posting-byte offset and the restart document.
func (e *Engine) skipEntry(tid uint8, term uint32, block int) (byteOff uint64, restartDoc uint32) {
	dictAddr := e.dictBase + uint64(term)*dictRecBytes
	skipOff := e.heap.ReadU64(tid, dictAddr+16)
	addr := e.skipBase + skipOff + uint64(block)*skipRecBytes
	byteOff = e.heap.ReadU64(tid, addr)
	restartDoc = e.heap.ReadU32(tid, addr+8)
	return byteOff, restartDoc
}

// SkipBlockFor deterministically selects which skip block a query scans for
// a long posting list: a hash of the query tag and term, so results are
// reproducible and verification oracles can mirror the choice.
func SkipBlockFor(queryTag uint64, term uint32, numBlocks int) int {
	if numBlocks <= 1 {
		return 0
	}
	h := queryTag ^ (uint64(term)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return int(h % uint64(numBlocks))
}

// docLen reads one document's quantized length from the norms array (the
// hot per-posting scoring path).
func (e *Engine) docLen(tid uint8, doc uint32) uint32 {
	return uint32(e.heap.ReadU8(tid, e.normsBase+uint64(doc))) << 2
}

// QuantizedDocLen returns the engine's quantized length for a raw document
// length (exposed so verification oracles can mirror the scoring math).
func QuantizedDocLen(rawLen int) uint32 {
	n := (rawLen + 2) >> 2
	if n > 255 {
		n = 255
	}
	return uint32(n) << 2
}

// contentRef reads one document's content location.
func (e *Engine) contentRef(tid uint8, doc uint32) (off uint64, nBytes uint32) {
	addr := e.metaBase + uint64(doc)*metaRecBytes
	off = e.heap.ReadU64(tid, addr)
	nBytes = e.heap.ReadU32(tid, addr+8)
	return off, nBytes
}

// idf returns the BM25 inverse document frequency for a document frequency.
func (e *Engine) idf(docFreq uint32) float64 {
	n := float64(e.numDocs)
	df := float64(docFreq)
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// bm25 returns one term's BM25 contribution for a document.
func (e *Engine) bm25(idf float64, tf, dl uint32) float32 {
	k1, b := e.cfg.K1, e.cfg.B
	tfF := float64(tf)
	norm := tfF * (k1 + 1) / (tfF + k1*(1-b+b*float64(dl)/e.avgDocLen))
	return float32(idf * norm)
}

// staticBoost reads the document's static-rank record (the hot per-posting
// path) and folds it into a multiplicative score factor in [1, 1.25).
func (e *Engine) staticBoost(tid uint8, doc uint32) float32 {
	w := e.heap.ReadU64(tid, e.staticBase+uint64(doc)*staticRecBytes)
	return 1 + float32(w%64)/256
}

// StaticWord returns doc's first static-rank word without recording
// (verification oracles).
func (e *Engine) StaticWord(doc uint32) uint64 {
	return binary.LittleEndian.Uint64(e.heap.ReadRaw(e.staticBase+uint64(doc)*staticRecBytes, 8))
}

// featureBoost folds the first feature word of a document into a small
// deterministic score adjustment, standing in for the learned-ranking stage.
func (e *Engine) featureBoost(tid uint8, doc uint32) float32 {
	base := e.featBase + uint64(doc)*uint64(e.cfg.FeatureBytes)
	// The final ranker reads the whole blob; fold only the first word.
	e.heap.Touch(tid, base+8, e.cfg.FeatureBytes-8, trace.Read)
	w := e.heap.ReadU64(tid, base)
	return float32(w%1024) / 4096
}

// FeatureWord returns the first feature word of doc without recording
// (verification/diagnostics only).
func (e *Engine) FeatureWord(doc uint32) uint64 {
	return binary.LittleEndian.Uint64(e.heap.ReadRaw(e.featBase+uint64(doc)*uint64(e.cfg.FeatureBytes), 8))
}
