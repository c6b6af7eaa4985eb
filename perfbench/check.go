package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// reference.json holds, per workload, the digest of every operation's
// simulated output at the full size and refSeed. Regenerate it only when
// the model is meant to change:
//
//	bash perfbench/run.sh --workload sweep --seconds 1 --update-ref perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// references returns the committed digests, keyed workload then op.
func references() (map[string]map[string]string, error) {
	var ref map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// writeReference replaces workload's digests in the reference file at path.
func writeReference(path, workload string, digests map[string]string) error {
	ref := map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	ref[workload] = digests
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checker counts operations and compares each op's digest with the
// committed reference (full size at refSeed) and with the run's first pass.
type checker struct {
	ref   map[string]string
	first map[string]string
	order []string
	// accesses and queries are the first pass's simulated work.
	accesses, queries int64
	attempted, failed int
}

func newChecker(cfg *config) *checker {
	c := &checker{first: map[string]string{}}
	if !cfg.tiny && cfg.seed == refSeed {
		ref, err := references()
		if err != nil {
			c.fail("reference", err)
		}
		c.ref = ref[cfg.workload]
		if c.ref == nil {
			c.ref = map[string]string{}
		}
	}
	return c
}

// fail counts one failed operation.
func (c *checker) fail(name string, err error) {
	c.attempted++
	c.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", name, err)
}

// check counts o and fails it on an error or a digest mismatch.
func (c *checker) check(o op) {
	if o.err != nil {
		c.fail(o.name, o.err)
		return
	}
	first, seen := c.first[o.name]
	if !seen {
		c.first[o.name] = o.digest
		c.order = append(c.order, o.name)
		c.accesses += o.accesses
		c.queries += o.queries
	}
	switch {
	case seen && o.digest != first:
		c.fail(o.name, fmt.Errorf("%w from the first pass: %s vs %s", errMismatch, o.digest, first))
	case c.ref != nil && c.ref[o.name] != o.digest:
		c.fail(o.name, fmt.Errorf("%w from reference.json: %s vs %q", errMismatch, o.digest, c.ref[o.name]))
	default:
		c.attempted++
	}
}

// derivedRate is an end-to-end rate shown in the report beside the metrics.
type derivedRate struct {
	name, unit string
	value      float64
}

// derived returns the simulated work per host second of a pass whose
// median wall time is wall.
func (c *checker) derived(wall float64) []derivedRate {
	var out []derivedRate
	if c.accesses > 0 && wall > 0 {
		out = append(out, derivedRate{"sim_accesses_per_s", "1/s", float64(c.accesses) / wall})
	}
	if c.queries > 0 && wall > 0 {
		out = append(out, derivedRate{"fleet_queries_per_s", "1/s", float64(c.queries) / wall})
	}
	return out
}

// digester hashes simulated outputs written to it with Printf.
type digester struct{ buf []byte }

// Printf appends one formatted record.
func (d *digester) Printf(format string, args ...any) {
	d.buf = fmt.Appendf(d.buf, format, args...)
	d.buf = append(d.buf, '\n')
}

// Sum returns the hex digest of everything written.
func (d *digester) Sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:12])
}
