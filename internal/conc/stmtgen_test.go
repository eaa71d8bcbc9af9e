package conc

//go:generate go test -run ^TestStaticStmtLabels$ -update .

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateLabels = flag.Bool("update", false, "rewrite the model call sites and their generated statement labels")

// Static statement labels. Every call in the model packages to a method
// that labels itself with event.CallerStmt is spliced, in place, into its
// *At twin with a package-level event.Site as the statement: the paper's
// statement IDs, fixed before the program runs instead of found by a stack
// walk on every execution. A package's sites live in its generated
// stmtsites.go.
//
// A site's label is an ID, fixed when the site is first generated: the
// string CallerStmt yields for the call at that time (the last two path
// segments of the file, a colon and the line of the call's opening
// parenthesis), so site siteApps57 is named "bench/apps.go:57". A call that
// already passes a site keeps it, and its label, wherever the call moves;
// stmtsites.go then gives the call's current position in a trailing
// comment. A new call gets a site named after its line, with a suffix
// ("collections/arraylist.go:95#2", siteArraylist95x2) if a site already
// holds that name or label, so no label is ever given twice. A site no call
// passes any more drops out.
//
// Without -update the test fails if a labelled method is called or
// referenced without a site, a site is passed by calls on two lines (a
// copy), two sites hold one label, or a stmtsites.go is stale;
// go generate ./... rewrites the calls and the stmtsites.go files. Calls it
// cannot rewrite (method values, defer and go statements, arguments that
// could intern another label before the site does) fail instead, so no
// site silently falls back to CallerStmt.

// modelPackages are the packages whose call sites carry generated labels,
// relative to the module root.
var modelPackages = []string{"internal/bench", "internal/collections", "internal/conc", "internal/progen"}

// sitesFile is the generated file holding a package's Sites.
const sitesFile = "stmtsites.go"

// twin is the explicit-label form of a CallerStmt-labelled method: its name
// and where its statement argument goes.
type twin struct {
	name string
	// last puts the statement after the other arguments (sched.Thread, like
	// MemRead(loc, stmt)); otherwise it follows the thread (conc).
	last bool
}

// labelled maps each CallerStmt-labelled method, as package.Type.Method, to
// its twin.
var labelled = map[string]twin{
	"racefuzzer/internal/conc.Var.Get":                {name: "GetAt"},
	"racefuzzer/internal/conc.Var.Set":                {name: "SetAt"},
	"racefuzzer/internal/conc.IntVar.Add":             {name: "AddAt"},
	"racefuzzer/internal/conc.Array.Get":              {name: "GetAt"},
	"racefuzzer/internal/conc.Array.Set":              {name: "SetAt"},
	"racefuzzer/internal/conc.Mutex.Lock":             {name: "LockAt"},
	"racefuzzer/internal/conc.Mutex.Unlock":           {name: "UnlockAt"},
	"racefuzzer/internal/conc.Mutex.Wait":             {name: "WaitAt"},
	"racefuzzer/internal/conc.Mutex.Notify":           {name: "NotifyAt"},
	"racefuzzer/internal/conc.Mutex.NotifyAll":        {name: "NotifyAllAt"},
	"racefuzzer/internal/sched.Thread.Fork":           {name: "ForkAt", last: true},
	"racefuzzer/internal/sched.Thread.Join":           {name: "JoinAt", last: true},
	"racefuzzer/internal/sched.Thread.Interrupt":      {name: "InterruptAt", last: true},
	"racefuzzer/internal/sched.Thread.IsInterrupted":  {name: "IsInterruptedAt", last: true},
	"racefuzzer/internal/sched.Thread.ClearInterrupt": {name: "ClearInterruptAt", last: true},
}

// unlabellable maps each CallerStmt-labelled method that has no twin, as
// package.Type.Method, to what a model calls instead.
var unlabellable = map[string]string{
	"racefuzzer/internal/conc.Mutex.Sync": "Lock and Unlock",
}

// twins maps each twin, as package.Type.Method, to its entry in labelled.
var twins = func() map[string]twin {
	m := map[string]twin{}
	for key, tw := range labelled {
		m[key[:strings.LastIndexByte(key, '.')+1]+tw.name] = tw
	}
	return m
}()

// interning is the function every label reaches the statement table by.
const interning = "racefuzzer/internal/event.StmtFor"

func TestStaticStmtLabels(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range modelPackages {
		files, problems, err := l.labelPackage(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		for _, p := range problems {
			t.Error(p)
		}
		if len(problems) > 0 {
			continue
		}
		for path, want := range files {
			have, err := os.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if bytes.Equal(have, want) {
				continue
			}
			if *updateLabels {
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			t.Errorf("%s is out of date, run go generate ./...: %s", l.rel(path), firstDiff(have, want))
		}
	}
}

func firstDiff(have, want []byte) string {
	h, w := strings.Split(string(have), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(h) || i < len(w); i++ {
		var a, b string
		if i < len(h) {
			a = h[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return fmt.Sprintf("line %d is %q, want %q", i+1, a, b)
		}
	}
	return "same lines"
}

// loader type-checks the module's packages from source. It leaves every
// generated stmtsites.go out and declares the Sites the other files use in
// a synthetic file instead, so a stale or missing stmtsites.go never stops
// the check.
type loader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*loaded
	decls  map[*types.Func]funcDecl
	labels map[*types.Func]bool // mayLabel's memo
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File // the package's own files, without the synthetic one
	info  *types.Info
	dir   string
}

type funcDecl struct {
	decl *ast.FuncDecl
	info *types.Info
}

func newLoader(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module line in go.mod")
	}
	return &loader{
		fset: token.NewFileSet(), root: root, module: module, std: importer.Default(),
		pkgs: map[string]*loaded{}, decls: map[*types.Func]funcDecl{}, labels: map[*types.Func]bool{},
	}, nil
}

func (l *loader) rel(path string) string {
	if r, err := filepath.Rel(l.root, path); err == nil {
		return r
	}
	return path
}

func (l *loader) inModule(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *loader) load(path string) (*loaded, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &loaded{dir: dir, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		if name == sitesFile {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	all := p.files
	if names := siteIdents(p.files); len(names) > 0 {
		src := fmt.Sprintf("package %s\n\nimport \"%s/internal/event\"\n\nvar %s event.Site\n", bp.Name, l.module, strings.Join(names, ", "))
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, "(sites)"), src, 0)
		if err != nil {
			return nil, err
		}
		all = append(append([]*ast.File(nil), p.files...), f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, all, p.info); err != nil {
		return nil, err
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
					l.decls[fn] = funcDecl{fd, p.info}
				}
			}
		}
	}
	l.pkgs[path] = p
	return p, nil
}

// siteIdents returns the sorted names of the Sites files refer to.
func siteIdents(files []*ast.File) []string {
	seen := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if id := siteRef(e); id != nil {
					seen[id.Name] = true
				}
			}
			return true
		})
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// siteRef returns X if e is X.Stmt() or &X with X named like a site.
func siteRef(e ast.Expr) *ast.Ident {
	var x ast.Expr
	switch e := e.(type) {
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stmt" && len(e.Args) == 0 {
			x = sel.X
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			x = e.X
		}
	}
	if id, ok := x.(*ast.Ident); ok && isSiteName(id.Name) {
		return id
	}
	return nil
}

// siteName returns the identifier of a new Site for a call on file:line,
// before any suffix: "site", the file's base name with its first letter
// upper-cased, and the line.
func siteName(file string, line int) (string, error) {
	base := strings.TrimSuffix(filepath.Base(file), ".go")
	if !isSiteName("site" + strings.ToUpper(base[:1]) + base[1:] + "0") {
		return "", fmt.Errorf("%s: no site identifier for this file name (want lower-case letters and digits)", file)
	}
	return "site" + strings.ToUpper(base[:1]) + base[1:] + strconv.Itoa(line), nil
}

func isSiteName(s string) bool {
	rest, ok := strings.CutPrefix(s, "site")
	if !ok || len(rest) < 2 || rest[0] < 'A' || rest[0] > 'Z' || s[len(s)-1] < '0' || s[len(s)-1] > '9' {
		return false
	}
	for _, r := range rest[1:] {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// funcKey names a function as package.Name and a method as
// package.Type.Method; it returns "" for anything else.
func funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
}

// callee returns the object a call's function expression denotes: a
// *types.Func for static calls, a variable for calls of func values, nil
// for function literals.
func callee(info *types.Info, fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if s := info.Selections[f]; s != nil {
			return s.Obj()
		}
		return info.Uses[f.Sel]
	case *ast.IndexExpr:
		return callee(info, f.X)
	case *ast.IndexListExpr:
		return callee(info, f.X)
	}
	return nil
}

// mayLabel reports whether calling obj could intern a statement label.
// Anything that is not a static call of a function declared in the module
// could (a func value, an interface method), except the standard library,
// which cannot reach the statement table.
func (l *loader) mayLabel(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return true
	}
	fn = fn.Origin()
	if fn.Pkg() == nil || !l.inModule(fn.Pkg().Path()) {
		return false
	}
	if funcKey(fn) == interning {
		return true
	}
	if v, ok := l.labels[fn]; ok {
		return v
	}
	l.labels[fn] = false // a recursive call adds nothing
	d, ok := l.decls[fn]
	may := !ok || d.decl.Body == nil
	if ok && d.decl.Body != nil {
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !may {
				if tv := d.info.Types[call.Fun]; !tv.IsType() && !tv.IsBuiltin() {
					may = l.mayLabel(callee(d.info, call.Fun))
				}
			}
			return !may
		})
	}
	l.labels[fn] = may
	return may
}

// edit replaces src[start:end] with text.
type edit struct {
	start, end int
	text       string
}

// labelPackage computes the labelled sources of one model package: every
// file whose calls change, and its stmtsites.go. It returns the problems
// that stop it from labelling the package.
func (l *loader) labelPackage(pkgPath string) (map[string][]byte, []string, error) {
	p, err := l.load(l.module + "/" + pkgPath)
	if err != nil {
		return nil, nil, err
	}
	var problems []string
	problem := func(pos token.Pos, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s: %s", l.rel(l.fset.Position(pos).String()), fmt.Sprintf(format, args...)))
	}
	path := filepath.Join(p.dir, sitesFile)
	held, err := heldSites(path)
	if err != nil {
		return nil, nil, err
	}
	labels := map[string]string{} // held site identifier -> label
	holder := map[string]string{} // held label -> site identifier
	taken := map[string]bool{}    // identifiers and labels a new site may not take
	for _, h := range held {
		if prev, ok := holder[h.label]; ok {
			problem(token.NoPos, "%s: sites %s and %s both hold label %q; delete one there and go generate gives its calls a new site", l.rel(path), prev, h.name, h.label)
		}
		labels[h.name], holder[h.label] = h.label, h.name
		taken[h.name], taken[h.label] = true, true
	}
	out := map[string][]byte{}
	sites := map[string]string{}     // identifier -> label of every site a call passes
	at := map[string]string{}        // identifier -> file:line of the calls passing it
	fresh := map[string]string{}     // file:line -> identifier of the new site there
	newLabels := map[string]string{} // new site identifier -> label
	refs := map[*ast.Ident]bool{}    // site references that are call arguments

	// position is the label CallerStmt would give a call on file:line.
	position := func(file *token.File, line int) string {
		return fmt.Sprintf("%s/%s:%d", filepath.Base(p.dir), filepath.Base(file.Name()), line)
	}
	// siteOf returns the site, and its label, that a call passing id (or
	// no site) resolves to: id itself if stmtsites.go holds it, else the
	// new site for the call's line, named after the line with the first
	// free suffix.
	siteOf := func(file *token.File, call *ast.CallExpr, id *ast.Ident) (string, string, error) {
		if id != nil {
			if label, ok := labels[id.Name]; ok {
				return id.Name, label, nil
			}
		}
		line := file.Line(call.Lparen)
		pos := position(file, line)
		if name, ok := fresh[pos]; ok {
			return name, newLabels[name], nil
		}
		base, err := siteName(file.Name(), line)
		if err != nil {
			return "", "", err
		}
		name, label := base, pos
		for n := 2; taken[name] || taken[label]; n++ {
			name, label = fmt.Sprintf("%sx%d", base, n), fmt.Sprintf("%s#%d", pos, n)
		}
		taken[name], taken[label] = true, true
		fresh[pos], newLabels[name] = name, label
		return name, label, nil
	}

	for _, f := range p.files {
		file := l.fset.File(f.Pos())
		deferred := map[*ast.CallExpr]bool{}
		called := map[*ast.SelectorExpr]*ast.CallExpr{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				deferred[n.Call] = true
			case *ast.GoStmt:
				deferred[n.Call] = true
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					called[sel] = n
				}
			}
			return true
		})
		// site names and records the Site a call is labelled with; id is
		// the site the call passes, or nil.
		site := func(call *ast.CallExpr, id *ast.Ident) (string, bool) {
			if deferred[call] {
				problem(call.Lparen, "a labelled call in a defer or go statement takes its label when the statement runs, not when the call does")
				return "", false
			}
			name, label, err := siteOf(file, call, id)
			if err != nil {
				problem(call.Lparen, "%v", err)
				return "", false
			}
			pos := position(file, file.Line(call.Lparen))
			if prev, ok := at[name]; ok && prev != pos {
				problem(call.Lparen, "site %s is passed by calls on %s and %s; write the copy without a site and go generate gives it its own", name, prev, pos)
				return "", false
			}
			sites[name], at[name] = label, pos
			return name, true
		}
		resolve := func(call *ast.CallExpr, id *ast.Ident) string {
			name, _, _ := siteOf(file, call, id)
			return name
		}
		var edits []edit
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if id := siteRef(arg); id != nil {
						refs[id] = true
						if name, ok := site(n, id); ok && id.Name != name {
							edits = append(edits, edit{file.Offset(id.Pos()), file.Offset(id.End()), name})
						}
					}
				}
			case *ast.SelectorExpr:
				key := funcKey(callee(p.info, n))
				call := called[n]
				if use, ok := unlabellable[key]; ok {
					problem(n.Sel.Pos(), "%s has no statically labelled form; use %s", n.Sel.Name, use)
				} else if tw, ok := labelled[key]; ok {
					if call == nil {
						problem(n.Sel.Pos(), "%s is referenced without being called; only a call can carry a static label", n.Sel.Name)
						return true
					}
					name, ok := site(call, nil)
					if !ok {
						return true
					}
					if !tw.last {
						l.checkOrder(p.info, file, call, call.Args[1:], name, resolve, problem)
					}
					edits = append(edits, labelEdits(file, n, call, tw, name)...)
				} else if tw, ok := twins[key]; ok && !tw.last && call != nil && len(call.Args) > 1 {
					if id := siteRef(call.Args[1]); id != nil {
						l.checkOrder(p.info, file, call, call.Args[2:], resolve(call, id), resolve, problem)
					}
				}
			}
			return true
		})
		if len(edits) == 0 {
			continue
		}
		src, err := os.ReadFile(file.Name())
		if err != nil {
			return nil, nil, err
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		for _, e := range edits {
			src = append(src[:e.start], append([]byte(e.text), src[e.end:]...)...)
		}
		// Longer calls can change the alignment of trailing comments;
		// gofmt only ever changes spacing, so no line moves.
		if out[file.Name()], err = format.Source(src); err != nil {
			return nil, nil, err
		}
	}
	for id, obj := range p.info.Uses {
		if obj.Parent() == p.pkg.Scope() && isSiteName(id.Name) && !refs[id] {
			problem(id.Pos(), "site %s is not an argument of a call, so no line labels it", id.Name)
		}
	}
	if len(sites) == 0 {
		if _, err := os.Stat(path); err == nil {
			problem(token.NoPos, "%s labels no call site; delete it", l.rel(path))
		}
		return out, problems, nil
	}
	if out[path], err = sitesSource(p.pkg.Name(), l.module, sites, at); err != nil {
		return nil, nil, err
	}
	return out, problems, nil
}

// heldSite is a site a package's stmtsites.go declares.
type heldSite struct{ name, label string }

// heldSites reads the sites of a stmtsites.go in declaration order. The
// loader type-checks the package without the file, so only the Name of
// each Site is read; a missing file holds none.
func heldSites(path string) ([]heldSite, error) {
	src, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
	if err != nil {
		return nil, err
	}
	var held []heldSite
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if i < len(vs.Values) && isSiteName(id.Name) {
					if label, ok := siteLabel(vs.Values[i]); ok {
						held = append(held, heldSite{id.Name, label})
					}
				}
			}
		}
	}
	return held, nil
}

// siteLabel returns the Name of an event.Site{Name: "..."} literal.
func siteLabel(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		val, isLit := kv.Value.(*ast.BasicLit)
		if ok && key.Name == "Name" && isLit && val.Kind == token.STRING {
			label, err := strconv.Unquote(val.Value)
			return label, err == nil
		}
	}
	return "", false
}

// labelEdits splices a call of a labelled method into its twin with the
// named Site as the statement.
func labelEdits(file *token.File, sel *ast.SelectorExpr, call *ast.CallExpr, tw twin, name string) []edit {
	at, text := file.Offset(call.Rparen), name+".Stmt()"
	switch {
	case !tw.last:
		at, text = file.Offset(call.Args[0].End()), ", "+text
	case len(call.Args) > 0:
		at, text = file.Offset(call.Args[len(call.Args)-1].End()), ", "+text
	}
	return []edit{{file.Offset(sel.Sel.Pos()), file.Offset(sel.Sel.End()), tw.name}, {at, at, text}}
}

// checkOrder reports arguments evaluated after a twin's statement that
// could intern another label first. CallerStmt runs inside the callee,
// after every argument; a twin with the statement after the thread
// evaluates its Site before the later arguments. The first-use numbering
// of statement IDs stays the same only if those arguments intern nothing
// but the same site: conversions, builtins, calls that reach no label, and
// labelled calls that get the same site are fine, and a function literal
// passed to the twin runs after the statement anyway. siteOf resolves the
// site a call passing id (or no site) gets.
func (l *loader) checkOrder(info *types.Info, file *token.File, call *ast.CallExpr, rest []ast.Expr, name string, siteOf func(*ast.CallExpr, *ast.Ident) string, problem func(token.Pos, string, ...any)) {
	for _, arg := range rest {
		if _, ok := arg.(*ast.FuncLit); ok {
			continue
		}
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id := siteRef(inner); id != nil {
				if other := siteOf(inner, id); other != name {
					problem(inner.Pos(), "%s is interned before %s here, unlike with CallerStmt; move the call", name, other)
				}
				return false
			}
			if tv := info.Types[inner.Fun]; tv.IsType() || tv.IsBuiltin() {
				return true
			}
			obj := callee(info, inner.Fun)
			key := funcKey(obj)
			if _, ok := labelled[key]; ok && siteOf(inner, nil) == name {
				return true
			}
			if _, ok := twins[key]; ok || !l.mayLabel(obj) {
				return true
			}
			problem(inner.Pos(), "this call may intern a label after the statement of the enclosing call, unlike with CallerStmt; hoist it out")
			return false
		})
	}
}

// sitesSource renders a package's stmtsites.go, its sites in label order.
// A site whose label is not the position of its call (it moved, or took a
// suffix) gives that position in a trailing comment.
func sitesSource(pkg, module string, sites, at map[string]string) ([]byte, error) {
	names := make([]string, 0, len(sites))
	for n := range sites {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		fi, li, si := splitLabel(sites[names[i]])
		fj, lj, sj := splitLabel(sites[names[j]])
		if fi != fj {
			return fi < fj
		}
		if li != lj {
			return li < lj
		}
		return si < sj
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by go generate (internal/conc/stmtgen_test.go); DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\nimport \"%s/internal/event\"\n\n", pkg, module)
	fmt.Fprintf(&b, "// The static statement labels of this package's model call sites.\nvar (\n")
	for _, n := range names {
		fmt.Fprintf(&b, "\t%s = event.Site{Name: %q}", n, sites[n])
		if at[n] != sites[n] {
			fmt.Fprintf(&b, " // at %s", at[n])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, ")\n")
	return format.Source(b.Bytes())
}

// splitLabel splits a label file:line or file:line#n into its parts; n is
// 1 without a suffix.
func splitLabel(label string) (string, int, int) {
	i := strings.LastIndexByte(label, ':')
	pos, n := label[i+1:], 1
	if j := strings.IndexByte(pos, '#'); j >= 0 {
		n, _ = strconv.Atoi(pos[j+1:])
		pos = pos[:j]
	}
	line, _ := strconv.Atoi(pos)
	return label[:i], line, n
}
