package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureModule is the module path fixture packages pretend to live in.
const fixtureModule = "example.com/m"

// fixturePackages loads every package under testdata/<rule>, mapping
// directory structure to import paths under fixtureModule.
func fixturePackages(t *testing.T, rule string) []*Package {
	t.Helper()
	root := filepath.Join("testdata", rule)
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := fixtureModule
		if rel != "." {
			importPath = fixtureModule + "/" + filepath.ToSlash(rel)
		}
		pkg, err := LoadDir(path, importPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rule, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s holds no packages", rule)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// checkFixture runs the analyzers over a fixture tree and matches
// findings 1:1 against the `// want "regexp"` expectations in the
// sources.
func checkFixture(t *testing.T, rule string, ans ...Analyzer) {
	t.Helper()
	pkgs := fixturePackages(t, rule)
	findings := Run(pkgs, ans)

	type key struct {
		file string
		line int
	}
	want := make(map[key]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			data, err := os.ReadFile(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.Name, i+1, m[1], err)
				}
				want[key{f.Name, i + 1}] = re
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s declares no expectations", rule)
	}

	matched := make(map[key]bool)
	for _, fd := range findings {
		k := key{fd.File, fd.Line}
		re, ok := want[k]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		text := fmt.Sprintf("[%s] %s", fd.Rule, fd.Message)
		if !re.MatchString(text) {
			t.Errorf("%s:%d: finding %q does not match want %q", k.file, k.line, text, re)
		}
		matched[k] = true
	}
	for k, re := range want {
		if !matched[k] {
			t.Errorf("%s:%d: expected a finding matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestLayerCheckFixture(t *testing.T) {
	checkFixture(t, "layercheck", NewLayerCheck(fixtureModule, map[string][]string{
		"internal/device": {"internal/lwc"},
		"internal/lwc":    {},
	}))
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", NewDeterminism([]string{fixtureModule + "/internal/sim"}, nil))
}

func TestLockCheckFixture(t *testing.T) {
	checkFixture(t, "lockcheck", NewLockCheck())
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, "errdrop", NewErrDrop([]string{fixtureModule + "/internal/xauth"}))
}

// fixtureTaintRule rebases a real taint rule's intra-module refs onto the
// fixture module, so the fixture exercises the production tables.
func fixtureTaintRule(r TaintRule) TaintRule {
	rebase := func(refs []TaintRef) []TaintRef {
		out := make([]TaintRef, len(refs))
		for i, ref := range refs {
			if rest, ok := strings.CutPrefix(ref.Pkg, XLFModule+"/"); ok {
				ref.Pkg = fixtureModule + "/" + rest
			}
			out[i] = ref
		}
		return out
	}
	r.Sources = rebase(r.Sources)
	r.Sinks = rebase(r.Sinks)
	r.Sanitizers = rebase(r.Sanitizers)
	return r
}

// TestTaintFixture runs both dataflow rules (sharing one type-check)
// over the seeded flow shapes: direct leak, sealed path, interprocedural
// in both directions, field writes, and waivers.
func TestTaintFixture(t *testing.T) {
	suite := NewTaintSuite(nil, fixtureTaintRule(XLFPlaintextEscape), fixtureTaintRule(XLFSecretLeak))
	checkFixture(t, "taint", suite...)
}

// TestFindingString pins the diagnostic format the CI gate greps for.
func TestFindingString(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 7, Rule: "layercheck", Message: "boom"}
	if got, wantStr := f.String(), "a/b.go:7: [layercheck] boom"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}

// TestLayerTableMirrorsModule loads the real repository and asserts the
// architecture table is complete and violation-free — the layer DAG as a
// unit test, independent of the cmd/xlf-vet driver.
func TestLayerTableMirrorsModule(t *testing.T) {
	pkgs, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(pkgs, []Analyzer{NewLayerCheck(XLFModule, XLFLayerTable)}) {
		t.Error(f)
	}
}

// TestRepoCleanUnderAllRules is the repo-tip gate: every analyzer, zero
// findings beyond the justified waivers frozen in vet-baseline.json.
func TestRepoCleanUnderAllRules(t *testing.T) {
	root := moduleRoot(t)
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBaseline(filepath.Join(root, "vet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, XLFAnalyzers())
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil {
			findings[i].File = filepath.ToSlash(rel)
		}
	}
	kept, suppressed := base.Filter(findings)
	for _, f := range kept {
		t.Error(f)
	}
	// The baseline must not rot: every waiver still matches a finding.
	// (The count dropped from 7 when the pooled kernel made netsim's Send
	// allocation-free, and from 6 to the three crypto key literals when
	// the incremental Core retired the core.Ingest waivers.)
	if want := len(findings) - len(kept); suppressed != want || suppressed != 3 {
		t.Errorf("baseline suppressed %d finding(s), want 3; stale entries must be pruned", suppressed)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
