package exper

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeArtifact writes doc under a temp directory and returns its path.
func writeArtifact(t *testing.T, doc []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// bumpDigit changes the first digit of field's value in the first row of
// doc's section — a one-value edit that keeps the document's byte layout.
func bumpDigit(doc []byte, section, field string) []byte {
	out := bytes.Clone(doc)
	i := bytes.Index(out, []byte(`"`+section+`"`))
	k := i + bytes.Index(out[i:], []byte(`"`+field+`"`)) + len(field) + 2
	for out[k] < '0' || out[k] > '9' {
		k++
	}
	if out[k] == '9' {
		out[k] = '8'
	} else {
		out[k]++
	}
	return out
}

// TestSuiteCheckCatchesDrift runs Check on every pinning shape — a
// sim_rows section, a modeled_rows section, the whole document, and the
// compile suite end to end. A freshly generated artifact passes, a one-value
// change inside the pinned section fails, and a change outside it passes.
func TestSuiteCheckCatchesDrift(t *testing.T) {
	synthetic := func(doc string) func([]string) ([]byte, string, error) {
		return func([]string) ([]byte, string, error) { return []byte(doc), "", nil }
	}
	compile, err := LookupSuite("compile")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		suite   Suite
		inside  func([]byte) []byte
		outside func([]byte) []byte // nil when the whole document is pinned
	}{
		{
			suite: Suite{Name: "sim-rows", Pinned: simOnly, Section: "sim_rows",
				Run: synthetic(`{"note": "n", "sim_rows": [{"us": 1.5}], "rt_rows": [{"us": 9}]}`)},
			inside:  func(d []byte) []byte { return bumpDigit(d, "sim_rows", "us") },
			outside: func(d []byte) []byte { return bumpDigit(d, "rt_rows", "us") },
		},
		{
			suite: Suite{Name: "modeled-rows", Pinned: virtual, Section: "modeled_rows",
				Run: synthetic(`{"winners": [{"us": 7}], "modeled_rows": [{"backend": "shm", "us": 2}], "rt_rows": []}`)},
			inside:  func(d []byte) []byte { return bumpDigit(d, "modeled_rows", "us") },
			outside: func(d []byte) []byte { return bumpDigit(d, "winners", "us") },
		},
		{
			suite: Suite{Name: "whole", Pinned: simOnly,
				Run: synthetic(`{"note": "n", "phases": [{"high": 4}]}`)},
			inside: func(d []byte) []byte { return bumpDigit(d, "phases", "high") },
		},
		{
			suite:   compile,
			inside:  func(d []byte) []byte { return bumpDigit(d, "sim_rows", "virtual_us") },
			outside: func(d []byte) []byte { return bytes.Replace(d, []byte(`"note": "`), []byte(`"note": "edited `), 1) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.suite.Name, func(t *testing.T) {
			fresh, _, err := tc.suite.Run(tc.suite.Pinned)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.suite.Check(writeArtifact(t, fresh), io.Discard); err != nil {
				t.Fatalf("fresh artifact rejected: %v", err)
			}
			if err := tc.suite.Check(writeArtifact(t, tc.inside(fresh)), io.Discard); err == nil {
				t.Fatal("a change inside the pinned section passed")
			}
			if tc.outside != nil {
				if err := tc.suite.Check(writeArtifact(t, tc.outside(fresh)), io.Discard); err != nil {
					t.Fatalf("a change outside the pinned section failed: %v", err)
				}
			}
		})
	}
}

// TestSuiteCheckWritesNothing pins that a check only reads its artifact:
// neither its bytes nor its modification time change, even on drift.
func TestSuiteCheckWritesNothing(t *testing.T) {
	s := Suite{Name: "drifting", Pinned: simOnly, Section: "sim_rows",
		Run: func([]string) ([]byte, string, error) { return []byte(`{"sim_rows":[2]}`), "", nil }}
	committed := []byte(`{"sim_rows":[1]}`)
	path := writeArtifact(t, committed)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(path, io.Discard); err == nil {
		t.Fatal("drifted artifact passed")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(committed, '\n')) || !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("Check rewrote the artifact")
	}
}

// TestSuitesTable checks the table's shape: unique names, every suite with
// an artifact and a run, and a check for every suite but the all-wall-clock
// backends ping-pong.
func TestSuitesTable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Suites() {
		if seen[s.Name] {
			t.Fatalf("duplicate suite %q", s.Name)
		}
		seen[s.Name] = true
		if s.Artifact == "" || s.Run == nil {
			t.Fatalf("suite %q lacks an artifact or a run", s.Name)
		}
		if (s.Pinned == nil) != (s.Name == "backends") {
			t.Fatalf("suite %q: pinned backends %v", s.Name, s.Pinned)
		}
	}
	if _, err := LookupSuite("nope"); err == nil {
		t.Fatal("unknown suite found")
	}
}
