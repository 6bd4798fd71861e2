package manifest

import (
	"encoding/json"
	"strings"
	"testing"
)

func validManifest() *Manifest {
	return &Manifest{
		Node: "lomo",
		Fingerprint: Fingerprint(FingerprintInput{
			Code:   "convmeter/experiments@v1",
			Config: "quick=true seed=7",
			Inputs: map[string]string{"fit": strings.Repeat("ab", 32)},
		}),
		Code:    "convmeter/experiments@v1",
		Config:  "quick=true seed=7",
		Inputs:  map[string]string{"fit": strings.Repeat("ab", 32)},
		Attempt: 1,
		Output:  json.RawMessage(`{"mape":12.5}`),
	}
}

// TestFingerprintDeterministic: the fingerprint is a pure function of its
// inputs, independent of map insertion order — the determinism contract
// that makes resume possible at all.
func TestFingerprintDeterministic(t *testing.T) {
	h := strings.Repeat("0a", 32)
	a := FingerprintInput{Code: "c", Config: "cfg", Inputs: map[string]string{}}
	b := FingerprintInput{Code: "c", Config: "cfg", Inputs: map[string]string{}}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		a.Inputs[k] = h
	}
	for _, k := range []string{"e", "d", "c", "b", "a"} {
		b.Inputs[k] = h
	}
	fa, fb := Fingerprint(a), Fingerprint(b)
	if fa != fb {
		t.Fatalf("fingerprint depends on insertion order: %s != %s", fa, fb)
	}
	if !WellFormedHash(fa) {
		t.Fatalf("fingerprint %q is not well-formed", fa)
	}
}

// TestFingerprintSensitivity: every component must move the fingerprint —
// a component that doesn't is a staleness class the fail-close rule
// cannot see.
func TestFingerprintSensitivity(t *testing.T) {
	base := FingerprintInput{Code: "c", Config: "cfg",
		Inputs: map[string]string{"fit": strings.Repeat("0a", 32)}}
	ref := Fingerprint(base)
	variants := map[string]FingerprintInput{
		"code":       {Code: "c2", Config: "cfg", Inputs: base.Inputs},
		"config":     {Code: "c", Config: "cfg2", Inputs: base.Inputs},
		"input hash": {Code: "c", Config: "cfg", Inputs: map[string]string{"fit": strings.Repeat("0b", 32)}},
		"input key":  {Code: "c", Config: "cfg", Inputs: map[string]string{"fit2": strings.Repeat("0a", 32)}},
	}
	for name, in := range variants {
		if Fingerprint(in) == ref {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	// Field boundaries are length-prefixed: shuffling bytes across the
	// code/config boundary must not collide.
	x := Fingerprint(FingerprintInput{Code: "ab", Config: "c"})
	y := Fingerprint(FingerprintInput{Code: "a", Config: "bc"})
	if x == y {
		t.Fatal("code/config boundary ambiguity: (ab,c) and (a,bc) collide")
	}
}

// TestSealParseRoundTrip: Seal's output parses back to the same manifest.
func TestSealParseRoundTrip(t *testing.T) {
	m := validManifest()
	data, err := Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("parse sealed manifest: %v", err)
	}
	if got.Node != m.Node || got.Fingerprint != m.Fingerprint || got.Hash != m.Hash {
		t.Fatalf("round trip mutated manifest: %+v != %+v", got, m)
	}
	if got.Schema != SchemaV2 {
		t.Fatalf("schema = %q, want %q", got.Schema, SchemaV2)
	}
	if string(got.Output) != string(m.Output) {
		t.Fatalf("output mutated: %s != %s", got.Output, m.Output)
	}
}

// TestParseFailsClose: every structural defect is an error — a manifest
// the executor might mistakenly trust must never come back as a value.
func TestParseFailsClose(t *testing.T) {
	seal := func(mutate func(m *Manifest)) []byte {
		m := validManifest()
		data, err := Seal(m)
		if err != nil {
			t.Fatal(err)
		}
		if mutate == nil {
			return data
		}
		var parsed Manifest
		if err := json.Unmarshal(data, &parsed); err != nil {
			t.Fatal(err)
		}
		mutate(&parsed)
		out, err := json.Marshal(&parsed)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sealWithout := func(field string) []byte {
		m := validManifest()
		data, err := Seal(m)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		delete(doc, field)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string][]byte{
		"not json":       []byte("{"),
		"empty":          nil,
		"no output":      sealWithout("output"),
		"no hash":        sealWithout("hash"),
		"no fingerprint": sealWithout("fingerprint"),
		"wrong schema":   seal(func(m *Manifest) { m.Schema = "convmeter/dag-manifest/v0" }),
		"v1 schema":      seal(func(m *Manifest) { m.Schema = "convmeter/dag-manifest/v1" }),
		"tampered out":   seal(func(m *Manifest) { m.Output = json.RawMessage(`{"mape":1.0}`) }),
		"tampered cfg":   seal(func(m *Manifest) { m.Config = "quick=false" }),
		"tampered hash":  seal(func(m *Manifest) { m.Hash = strings.Repeat("00", 32) }),
		"short hash":     seal(func(m *Manifest) { m.Hash = "abc" }),
		"upper hash":     seal(func(m *Manifest) { m.Hash = strings.ToUpper(m.Hash) }),
		"no node":        seal(func(m *Manifest) { m.Node = "" }),
		"bad fp":         seal(func(m *Manifest) { m.Fingerprint = "zz" }),
		"attempt 0":      seal(func(m *Manifest) { m.Attempt = 0 }),
		"bad input hash": seal(func(m *Manifest) { m.Inputs = map[string]string{"fit": "nope"} }),
		"empty inputkey": seal(func(m *Manifest) { m.Inputs = map[string]string{"": strings.Repeat("ab", 32)} }),
	}
	for name, data := range cases {
		if m, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted a defective manifest: %+v", name, m)
		}
	}
}

// TestSealRejectsIllFormed: Seal refuses to commit a manifest that Parse
// would reject — the invariants hold at write time, not just read time.
func TestSealRejectsIllFormed(t *testing.T) {
	for name, mutate := range map[string]func(m *Manifest){
		"no node":    func(m *Manifest) { m.Node = "" },
		"bad fp":     func(m *Manifest) { m.Fingerprint = "short" },
		"attempt 0":  func(m *Manifest) { m.Attempt = 0 },
		"bad output": func(m *Manifest) { m.Output = json.RawMessage("not json") },
	} {
		m := validManifest()
		mutate(m)
		if _, err := Seal(m); err == nil {
			t.Errorf("%s: Seal committed an ill-formed manifest", name)
		}
	}
}

func TestWellFormedHash(t *testing.T) {
	if !WellFormedHash(strings.Repeat("0f", 32)) {
		t.Fatal("rejected a valid hash")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0F", 32), strings.Repeat("0g", 32), strings.Repeat("0a", 33)} {
		if WellFormedHash(bad) {
			t.Errorf("accepted malformed hash %q", bad)
		}
	}
}
