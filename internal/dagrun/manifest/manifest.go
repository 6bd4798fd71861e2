// Package manifest defines the content-addressed run manifest that binds
// one DAG node's output to the exact inputs that produced it: a code
// fingerprint, the node's configuration and the manifest hashes of every
// dependency. Whatever else shapes one node's output — a fault schedule,
// say — belongs in that node's configuration. The executor
// (internal/dagrun) trusts a manifest only when its recomputed content
// hash matches the stored one AND its fingerprint matches the
// fingerprint of the current run — anything else fails closed and the
// node re-runs. A manifest can therefore never launder an output computed
// under different code, configuration or inputs into a resumed run.
//
// The package is classified deterministic in lint.config: hashing and
// fingerprinting are pure functions of their inputs, every map is
// iterated in sorted key order (see DESIGN.md §6 — a map-range into a
// hash would make the same manifest hash differently on every run,
// silently invalidating every resume), and nothing here touches a clock,
// a goroutine or the filesystem. The measured executor above does the
// I/O.
package manifest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// SchemaV2 tags the manifest format; cmd/obscheck -manifest checks it.
// A manifest under any other tag fails closed on the tag, so a run
// directory in an older format re-runs instead of reading as tampered.
const SchemaV2 = "convmeter/dag-manifest/v2"

// Manifest is the durable record of one completed DAG node.
type Manifest struct {
	// Schema is always SchemaV2.
	Schema string `json:"schema"`
	// Node is the DAG node id this manifest belongs to.
	Node string `json:"node"`
	// Fingerprint is Fingerprint() of the run that produced the output:
	// the executor re-runs the node whenever the current run's
	// fingerprint differs.
	Fingerprint string `json:"fingerprint"`
	// Code, Config and Inputs are the fingerprint's components, stored
	// openly so an audit (or obscheck) can explain *why* a fingerprint
	// mismatched.
	Code   string `json:"code"`
	Config string `json:"config"`
	// Inputs maps each dependency node id to the Hash of the manifest
	// whose output this node consumed.
	Inputs map[string]string `json:"inputs"`
	// Attempt counts executions of this node across the run's lifetime,
	// resumes included; starts at 1.
	Attempt int `json:"attempt"`
	// Output is the node's JSON-encoded result, held and hashed in
	// compact form (Seal and Parse both canonicalize), so the content
	// hash is invariant to how the document was indented on disk.
	Output json.RawMessage `json:"output"`
	// Hash is the content address: HashOf over every field above. A
	// manifest whose stored hash does not match its recomputed one is
	// corrupt and must not be trusted.
	Hash string `json:"hash"`
}

// FingerprintInput carries everything a node's identity depends on.
type FingerprintInput struct {
	Code   string
	Config string
	// Inputs maps dependency node id to that dependency's manifest hash,
	// chaining content addresses: a change anywhere upstream changes
	// every downstream fingerprint.
	Inputs map[string]string
}

// Fingerprint derives the node fingerprint from its inputs. Inputs are
// folded in sorted key order — the determinism contract (DESIGN.md §6):
// ranging the map directly would hash the same node differently from one
// process to the next.
func Fingerprint(in FingerprintInput) string {
	h := sha256.New()
	writeField(h, "code", in.Code)
	writeField(h, "config", in.Config)
	for _, k := range sortedKeys(in.Inputs) {
		writeField(h, "input:"+k, in.Inputs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashOf computes a manifest's content address over every field except
// Hash itself, again iterating Inputs in sorted key order.
func HashOf(m *Manifest) string {
	h := sha256.New()
	writeField(h, "schema", m.Schema)
	writeField(h, "node", m.Node)
	writeField(h, "fingerprint", m.Fingerprint)
	writeField(h, "code", m.Code)
	writeField(h, "config", m.Config)
	for _, k := range sortedKeys(m.Inputs) {
		writeField(h, "input:"+k, m.Inputs[k])
	}
	writeField(h, "attempt", strconv.Itoa(m.Attempt))
	writeField(h, "output", string(m.Output))
	return hex.EncodeToString(h.Sum(nil))
}

// Seal stamps the schema and content hash onto m and returns its
// serialized form, ready for an atomic write.
func Seal(m *Manifest) ([]byte, error) {
	m.Schema = SchemaV2
	if err := wellFormed(m); err != nil {
		return nil, err
	}
	m.Output = compactOutput(m.Output)
	m.Hash = HashOf(m)
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, fmt.Errorf("manifest: marshal node %s: %w", m.Node, err)
	}
	return append(data, '\n'), nil
}

// Parse decodes and verifies a manifest, failing closed: any structural
// defect — wrong schema, malformed fingerprint, a stored hash that does
// not match the recomputed content hash — is an error, never a value the
// caller might mistakenly trust.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.Schema != SchemaV2 {
		return nil, fmt.Errorf("manifest: schema %q, want %q", m.Schema, SchemaV2)
	}
	if err := wellFormed(&m); err != nil {
		return nil, err
	}
	m.Output = compactOutput(m.Output)
	if !WellFormedHash(m.Hash) {
		return nil, fmt.Errorf("manifest: node %s: malformed hash %q", m.Node, m.Hash)
	}
	if got := HashOf(&m); got != m.Hash {
		return nil, fmt.Errorf("manifest: node %s: stored hash %s != recomputed %s (corrupt or tampered)",
			m.Node, m.Hash, got)
	}
	return &m, nil
}

// wellFormed checks the invariants shared by Seal and Parse.
func wellFormed(m *Manifest) error {
	if m.Node == "" {
		return errors.New("manifest: empty node id")
	}
	if !WellFormedHash(m.Fingerprint) {
		return fmt.Errorf("manifest: node %s: malformed fingerprint %q", m.Node, m.Fingerprint)
	}
	if m.Attempt < 1 {
		return fmt.Errorf("manifest: node %s: attempt %d, want >= 1", m.Node, m.Attempt)
	}
	for _, k := range sortedKeys(m.Inputs) {
		if k == "" {
			return fmt.Errorf("manifest: node %s: input with empty node id", m.Node)
		}
		if !WellFormedHash(m.Inputs[k]) {
			return fmt.Errorf("manifest: node %s: malformed input hash %q for %s", m.Node, m.Inputs[k], k)
		}
	}
	if len(m.Output) == 0 || !json.Valid(m.Output) {
		return fmt.Errorf("manifest: node %s: output is not valid JSON", m.Node)
	}
	return nil
}

// compactOutput canonicalizes an already-validated output to compact
// JSON. MarshalIndent reflows nested raw messages, so without this the
// same output would hash differently before and after a disk round trip.
func compactOutput(raw json.RawMessage) json.RawMessage {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw // unreachable after wellFormed; keep bytes as-is
	}
	return buf.Bytes()
}

// WellFormedHash reports whether s looks like a hash this package
// produced: 64 lowercase hex digits.
func WellFormedHash(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeField folds one length-prefixed field into the hash. The length
// prefix keeps field boundaries unambiguous: ("ab","c") and ("a","bc")
// must not hash alike.
func writeField(h interface{ Write(p []byte) (int, error) }, key, val string) {
	_, _ = fmt.Fprintf(h, "%d:%s=%d:%s;", len(key), key, len(val), val)
}

// sortedKeys returns the map's keys in sorted order — the only order any
// hash input is ever iterated in.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
