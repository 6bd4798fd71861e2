package dagrun

import (
	"testing"

	"convmeter/internal/dagrun/manifest"
)

// FuzzParseManifest hammers the fail-close parser with arbitrary bytes.
// The invariant under fuzz: Parse either errors, or returns a manifest
// that satisfies every trust precondition — correct schema, verified
// content hash, well-formed fingerprint and input hashes — and that
// survives a Seal/Parse round trip unchanged. Any input that parses but
// would not verify is a hole in the fail-close rule. Seed corpus lives
// in testdata/fuzz/FuzzParseManifest; go test runs the corpus as normal
// regression cases.
func FuzzParseManifest(f *testing.F) {
	valid, err := manifest.Seal(&manifest.Manifest{
		Node:        "fit",
		Fingerprint: manifest.Fingerprint(manifest.FingerprintInput{Code: "fuzz@v1", Config: "cfg"}),
		Code:        "fuzz@v1",
		Config:      "cfg",
		Attempt:     1,
		Output:      []byte(`{"coef":1.25}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":"convmeter/dag-manifest/v2"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := manifest.Parse(data)
		if err != nil {
			return // rejected: fail-close did its job
		}
		if m.Schema != manifest.SchemaV2 {
			t.Fatalf("accepted schema %q", m.Schema)
		}
		if m.Node == "" || m.Attempt < 1 {
			t.Fatalf("accepted ill-formed manifest: %+v", m)
		}
		if !manifest.WellFormedHash(m.Fingerprint) || !manifest.WellFormedHash(m.Hash) {
			t.Fatalf("accepted malformed hash/fingerprint: %+v", m)
		}
		if got := manifest.HashOf(m); got != m.Hash {
			t.Fatalf("accepted manifest whose hash does not verify: %s != %s", got, m.Hash)
		}
		resealed, err := manifest.Seal(m)
		if err != nil {
			t.Fatalf("accepted manifest Seal rejects: %v", err)
		}
		m2, err := manifest.Parse(resealed)
		if err != nil {
			t.Fatalf("round trip broke a valid manifest: %v", err)
		}
		if m2.Hash != m.Hash || string(m2.Output) != string(m.Output) {
			t.Fatalf("round trip mutated manifest: %+v != %+v", m2, m)
		}
	})
}
