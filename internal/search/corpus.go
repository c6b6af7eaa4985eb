// Package search implements the search-engine substrate: a synthetic
// corpus, an inverted index with varint-compressed posting lists serialized
// into an instrumented shard arena, BM25 query evaluation with heap-resident
// scoring structures, top-k selection, snippet extraction, and a query
// cache.
//
// It is the workload generator of this reproduction: executing queries
// against the engine emits the shard/heap/stack address streams (via
// internal/memsim) and the code/branch streams (via internal/codegen) that
// the paper captured from production leaf servers with Pin.
package search

import (
	"fmt"

	"searchmem/internal/stats"
)

// CorpusConfig describes the synthetic document collection.
type CorpusConfig struct {
	// NumDocs is the number of documents in this leaf's shard.
	NumDocs int
	// VocabSize is the number of distinct terms.
	VocabSize int
	// AvgDocLen is the mean document length in terms; lengths follow a
	// bounded Pareto around it, matching the heavy tail of real corpora.
	AvgDocLen int
	// TermZipfSkew sets term popularity inside documents. Real text is
	// near 1.0 (Zipf's law).
	TermZipfSkew float64
	// Seed drives generation.
	Seed uint64
}

// DefaultCorpusConfig returns a small but structurally realistic corpus
// suitable for tests; experiments scale NumDocs and VocabSize up.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		NumDocs:      20000,
		VocabSize:    30000,
		AvgDocLen:    80,
		TermZipfSkew: 1.0,
		Seed:         0x5ea7c4,
	}
}

// Validate reports whether the configuration is usable.
func (c CorpusConfig) Validate() error {
	if c.NumDocs <= 0 || c.VocabSize <= 0 || c.AvgDocLen <= 0 {
		return fmt.Errorf("search: corpus counts must be positive")
	}
	if c.NumDocs >= 1<<31 || c.VocabSize >= 1<<31 {
		return fmt.Errorf("search: corpus too large for 32-bit ids")
	}
	if c.TermZipfSkew <= 0 {
		return fmt.Errorf("search: term zipf skew must be positive")
	}
	return nil
}

// Corpus is a generated document collection held in ordinary Go memory;
// it exists only during index construction (the paper's indexing system is
// a batch pipeline distinct from the serving system under study).
type Corpus struct {
	cfg CorpusConfig
	// Docs[d] is the term sequence of document d.
	Docs [][]uint32
	// TotalTerms is the summed document length.
	TotalTerms int64
}

// GenerateCorpus synthesizes a corpus from cfg. Document lengths are drawn
// from rng and terms from termDist's independent split stream, so drawing
// every length first and then every term yields the same documents as
// interleaving the two per document; the terms land in one flat array that
// the documents slice.
func GenerateCorpus(cfg CorpusConfig) *Corpus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed)
	termDist := stats.NewZipf(rng.Split(), uint64(cfg.VocabSize), cfg.TermZipfSkew)
	c := &Corpus{cfg: cfg, Docs: make([][]uint32, cfg.NumDocs)}
	// Bounded Pareto with alpha tuned so the mean lands near AvgDocLen for
	// these bounds.
	docLen := stats.NewBoundedPareto(float64(cfg.AvgDocLen)/3, float64(cfg.AvgDocLen)*12, 1.75)
	lens := make([]int, cfg.NumDocs)
	for d := range lens {
		lens[d] = int(docLen.Draw(rng))
		c.TotalTerms += int64(lens[d])
	}
	terms := make([]uint32, c.TotalTerms)
	for i := range terms {
		terms[i] = uint32(termDist.Next())
	}
	off := 0
	for d, n := range lens {
		c.Docs[d] = terms[off : off+n : off+n]
		off += n
	}
	return c
}

// Config returns the corpus configuration.
func (c *Corpus) Config() CorpusConfig { return c.cfg }

// AvgDocLen returns the realized mean document length.
func (c *Corpus) AvgDocLen() float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	return float64(c.TotalTerms) / float64(len(c.Docs))
}

// postings is the inverted index in compressed sparse row form: term t's
// posting list is docs[start[t]:start[t+1]], with the matching term
// frequencies in tfs, sorted by document id.
type postings struct {
	start []int
	docs  []uint32
	tfs   []uint32
}

// list returns term t's documents and term frequencies.
func (p *postings) list(t int) (docs, tfs []uint32) {
	lo, hi := p.start[t], p.start[t+1]
	return p.docs[lo:hi], p.tfs[lo:hi]
}

// buildPostings inverts the corpus by counting sort. Pass 1 counts each
// term's document frequency, using a per-term stamp of the last document
// that contained it, and a prefix sum turns the counts into list starts.
// Pass 2 revisits the documents in id order and appends one posting per
// (term, document) pair at the term's next free slot, bumping the tf of
// that slot on repeats within a document. Visiting documents in id order
// sorts every list by document.
func buildPostings(c *Corpus) postings {
	vocab := c.cfg.VocabSize
	// last[t] is one more than the last document id that contained t
	// (zero: none yet).
	last := make([]uint32, vocab)
	start := make([]int, vocab+1)
	for d, doc := range c.Docs {
		stamp := uint32(d) + 1
		for _, t := range doc {
			if last[t] != stamp {
				last[t] = stamp
				start[t+1]++
			}
		}
	}
	for t := 0; t < vocab; t++ {
		start[t+1] += start[t]
	}
	p := postings{start: start, docs: make([]uint32, start[vocab]), tfs: make([]uint32, start[vocab])}
	// next[t] is the slot term t's next posting fills; next[t]-1 holds its
	// posting for the current document once the stamp matches.
	next := make([]int, vocab)
	copy(next, start)
	clear(last)
	for d, doc := range c.Docs {
		stamp := uint32(d) + 1
		for _, t := range doc {
			if last[t] == stamp {
				p.tfs[next[t]-1]++
				continue
			}
			last[t] = stamp
			p.docs[next[t]] = uint32(d)
			p.tfs[next[t]] = 1
			next[t]++
		}
	}
	// Lists sort by construction; verify cheaply.
	for t := 0; t < vocab; t++ {
		docs, _ := p.list(t)
		for i := 1; i < len(docs); i++ {
			if docs[i] <= docs[i-1] {
				panic(fmt.Sprintf("search: posting list %d not strictly increasing", t))
			}
		}
	}
	return p
}
