package conc

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The generator's edit rules, checked on a fixture package in a copy of the
// module: labels are IDs, so editing the code around a call never renames
// its site.

// fixture is the package the edit tests label, relative to the module root.
const fixture = "internal/fixture"

// fixtureSrc labels two writes on lines 6 and 7.
const fixtureSrc = `package fixture

import "racefuzzer/internal/conc"

func F(t *conc.Thread, v *conc.Var[int]) {
	v.Set(t, 1)
	v.Set(t, 2)
}
`

// copyModule copies go.mod and every non-test Go file of the module's
// packages into a temporary directory, adds the fixture package and labels
// it once: line 6 gets siteFix6 and line 7 siteFix7.
func copyModule(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "campaignbench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dst, fixture), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dst, fixtureSrc)
	if problems := generate(t, dst); len(problems) > 0 {
		t.Fatalf("labelling the fixture: %v", problems)
	}
	return dst
}

func writeFixture(t *testing.T, root, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(root, fixture, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readFixture returns the fixture's source and its stmtsites.go.
func readFixture(t *testing.T, root string) (src, sites string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, fixture, "fix.go"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := os.ReadFile(filepath.Join(root, fixture, sitesFile))
	if err != nil {
		t.Fatal(err)
	}
	return string(b), string(s)
}

// generate labels the fixture package with a fresh loader, as
// go generate ./... would, and returns the problems that stopped it.
func generate(t *testing.T, root string) []string {
	t.Helper()
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	files, problems, err := l.labelPackage(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		return problems
	}
	for path, src := range files {
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// editFixture replaces the only occurrence of old in the fixture's source.
func editFixture(t *testing.T, root, old, new string) {
	t.Helper()
	src, _ := readFixture(t, root)
	if strings.Count(src, old) != 1 {
		t.Fatalf("fixture holds %q %d times, want once:\n%s", old, strings.Count(src, old), src)
	}
	writeFixture(t, root, strings.Replace(src, old, new, 1))
}

// wantLines fails unless text holds each line, spacing aside: gofmt aligns
// the sites and their comments.
func wantLines(t *testing.T, what, text string, lines ...string) {
	t.Helper()
	squash := func(s string) string { return " " + strings.Join(strings.Fields(s), " ") + " " }
	for _, line := range lines {
		if !strings.Contains(squash(text), squash(line)) {
			t.Errorf("%s lacks %q:\n%s", what, line, text)
		}
	}
}

// moved pushes the first call down three lines.
const moved = "\t// one\n\t// two\n\t// three\n\tv.SetAt(t, siteFix6.Stmt(), 1)"

func TestStmtGenMovedCallKeepsLabel(t *testing.T) {
	root := copyModule(t)
	editFixture(t, root, "\tv.SetAt(t, siteFix6.Stmt(), 1)", moved)
	if problems := generate(t, root); len(problems) > 0 {
		t.Fatal(problems)
	}
	src, sites := readFixture(t, root)
	wantLines(t, "fix.go", src, "\tv.SetAt(t, siteFix6.Stmt(), 1)\n", "\tv.SetAt(t, siteFix7.Stmt(), 2)\n")
	wantLines(t, sitesFile, sites,
		`siteFix6 = event.Site{Name: "fixture/fix.go:6"} // at fixture/fix.go:9`,
		`siteFix7 = event.Site{Name: "fixture/fix.go:7"} // at fixture/fix.go:10`)
	if problems := generate(t, root); len(problems) > 0 {
		t.Fatal(problems)
	}
	if _, again := readFixture(t, root); again != sites {
		t.Errorf("a second run changed %s:\n%s\nwant\n%s", sitesFile, again, sites)
	}
}

func TestStmtGenNewCallOnHeldLineTakesSuffix(t *testing.T) {
	root := copyModule(t)
	editFixture(t, root, "\tv.SetAt(t, siteFix6.Stmt(), 1)", moved)
	editFixture(t, root, "\t// one\n", "\tv.Set(t, 3)\n")
	if problems := generate(t, root); len(problems) > 0 {
		t.Fatal(problems)
	}
	src, sites := readFixture(t, root)
	wantLines(t, "fix.go", src, "\tv.SetAt(t, siteFix6x2.Stmt(), 3)\n", "\tv.SetAt(t, siteFix6.Stmt(), 1)\n")
	wantLines(t, sitesFile, sites,
		`siteFix6 = event.Site{Name: "fixture/fix.go:6"} // at fixture/fix.go:9`,
		`siteFix6x2 = event.Site{Name: "fixture/fix.go:6#2"} // at fixture/fix.go:6`)
}

func TestStmtGenRejectsCopiedSite(t *testing.T) {
	root := copyModule(t)
	editFixture(t, root, "\tv.SetAt(t, siteFix7.Stmt(), 2)\n", "\tv.SetAt(t, siteFix7.Stmt(), 2)\n\tv.SetAt(t, siteFix7.Stmt(), 2)\n")
	problems := generate(t, root)
	if len(problems) != 1 || !strings.Contains(problems[0], "site siteFix7 is passed by calls on fixture/fix.go:7 and fixture/fix.go:8") {
		t.Fatalf("problems = %q, want one naming the copied siteFix7", problems)
	}
}

func TestStmtGenRejectsSharedLabel(t *testing.T) {
	root := copyModule(t)
	path := filepath.Join(root, fixture, sitesFile)
	_, sites := readFixture(t, root)
	shared := strings.Replace(sites, `"fixture/fix.go:7"`, `"fixture/fix.go:6"`, 1)
	if err := os.WriteFile(path, []byte(shared), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := generate(t, root)
	if len(problems) != 1 || !strings.Contains(problems[0], `sites siteFix6 and siteFix7 both hold label "fixture/fix.go:6"`) {
		t.Fatalf("problems = %q, want one naming the shared label", problems)
	}
}

func TestStmtGenDeletedCallDropsSite(t *testing.T) {
	root := copyModule(t)
	editFixture(t, root, "\tv.SetAt(t, siteFix6.Stmt(), 1)\n", "")
	if problems := generate(t, root); len(problems) > 0 {
		t.Fatal(problems)
	}
	_, sites := readFixture(t, root)
	if strings.Contains(sites, "siteFix6") {
		t.Errorf("%s still declares siteFix6:\n%s", sitesFile, sites)
	}
	wantLines(t, sitesFile, sites, `siteFix7 = event.Site{Name: "fixture/fix.go:7"} // at fixture/fix.go:6`)
}
