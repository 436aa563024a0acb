package twophase_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptHooks are the exported names under internal/ that no non-test file
// names (or, for a func, no file of another package), kept on purpose:
// each is read by a test that pins live behaviour or says why it stays.
// The list is exact — an entry that stops being needed fails the test too.
var keptHooks = map[string]string{
	"modelhub.CachedSplits":     "feature-cache residency after a select (TestCatalogSweepStaysResident, core.Build release check)",
	"modelhub.SourceHeadPasses": "counts source-head passes: the hoist tests prove one pass per cached split",
	"cluster.Passes":            "counts clustering passes: the warm-start tests prove a rehydrated world never re-clusters",
	"datahub.Generations":       "counts dataset generations: the core tests prove a restore generates no benchmark dataset and a built world keeps none",
	"datahub.Generate":          "one dataset outside a catalog (the catalog generates through its checked specs); the lsq, recall and trainer tests build single datasets from it",
	"faultinject.Reset":         "disarms the process-wide schedule; every test that Activates defers it",
	"shard.Owner":               "a key's primary owner; bench/stats_test.go splits batches by it",
}

// harnessPackages are internal packages that are test support by design:
// every caller of their exported names is a _test.go file of the same
// package, so the rule below has nothing to say about them.
var harnessPackages = map[string]string{
	"internal/chaos": "shared helpers of the chaos and fleet suites (contract_test.go, e2e_test.go, fleet_e2e_test.go); no non-test importer",
}

// stdlibHooks are methods the standard library calls through its own
// interfaces, which no identifier in this module needs to name.
var stdlibHooks = map[string]bool{
	"Unwrap": true, // errors.Is / errors.As
}

// TestExportedSurfaceIsUsed makes "exported surface = reachable surface" a
// tier-1 check: every exported top-level func, method, type, const and var
// declared in a non-test file under internal/ must be named, other than by
// its own declaration, in a non-test .go file of the module (cmd/ and
// bench/ included). An exported func must also be named by a file of
// another package, tests included: one that only its own package calls
// is unexported. Consts and vars answer the same second rule one
// declaration block at a time — the contract's sentinels, wire codes and
// enum sets are exported as sets, so a parenthesised block of several
// specs passes when any of its exported names is named by a file of
// another package, and a lone const or var must be named so itself.
// Types are exempt from it: a type's name is what a caller holds its
// values by.
//
// It is syntactic (go/parser only) and over-approximates use by name. A
// func, type, const or var pkg.Foo counts as used when some file names
// pkg.Foo, or a file of pkg names a bare Foo. A method Foo counts as used
// when anything called Foo is named anywhere — a field, another type's
// method, a method in a module interface (which is how interface
// satisfaction is covered). So it can miss dead code, and the report-only
// `make deadcode` CI step remains the precise second opinion, but it never
// flags live code.
func TestExportedSurfaceIsUsed(t *testing.T) {
	type decl struct {
		pkg, name      string
		method, fnDecl bool
		pos            string
		block          string // a const or var's declaration block; "" for the rest
	}
	fset := token.NewFileSet()
	var declared []decl // exported declarations under internal/
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File

	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || harnessPackages[dir] != "" {
			return
		}
		add := func(id *ast.Ident, method, fnDecl bool, block string) {
			declIdents[id] = true
			if id.IsExported() {
				declared = append(declared, decl{f.Name.Name, id.Name, method, fnDecl, fset.Position(id.Pos()).String(), block})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Recv != nil, d.Recv == nil, "")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, false, false, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							block := fset.Position(d.Pos()).String()
							if len(d.Specs) == 1 && len(spec.Names) == 1 {
								block = f.Name.Name + "." + id.Name // a lone const or var is its own block
							}
							add(id, false, false, block)
						}
					}
				}
			}
		}
	})

	named := map[string]bool{}     // any identifier, by bare name
	qualified := map[string]bool{} // "pkg.Name": pkg.Name anywhere, or a bare Name inside pkg
	outside := map[string]bool{}   // "pkg.Name": the selector pkg.Name, tests included — a use from another package
	scan := func(f *ast.File, test bool) {
		alias := map[string]string{} // import name -> package name, where renamed
		for _, imp := range f.Imports {
			if imp.Name != nil {
				alias[imp.Name.Name] = filepath.Base(strings.Trim(imp.Path.Value, `"`))
			}
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					pkg := x.Name
					if real, ok := alias[pkg]; ok {
						pkg = real
					}
					outside[pkg+"."+n.Sel.Name] = true
					if !test {
						qualified[pkg+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if declIdents[n] || test {
					break
				}
				named[n.Name] = true
				if !selected[n] {
					qualified[f.Name.Name+"."+n.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range files {
		scan(f, false)
	}
	walkGoFiles(t, fset, true, func(_ string, f *ast.File) { scan(f, true) })

	blockUsed := map[string]bool{} // a const or var block with a name some other package's file names
	for _, d := range declared {
		if d.block != "" && outside[d.pkg+"."+d.name] {
			blockUsed[d.block] = true
		}
	}
	needed := map[string]bool{}
	var unused []string
	for _, d := range declared {
		key := d.pkg + "." + d.name
		if d.method && (named[d.name] || stdlibHooks[d.name]) || !d.method && qualified[key] {
			if d.block != "" && !blockUsed[d.block] {
				if keptHooks[key] != "" {
					needed[key] = true
				} else {
					unused = append(unused, d.pos+": "+key+" is exported but only files of its own package name it or its block: unexport it, or add it to keptHooks with why it stays")
				}
			}
			if d.fnDecl && !outside[key] {
				if keptHooks[key] != "" {
					needed[key] = true
				} else {
					unused = append(unused, d.pos+": "+key+" is exported but only files of its own package name it: unexport it, or add it to keptHooks with why it stays")
				}
			}
			continue
		}
		if keptHooks[key] != "" {
			needed[key] = true
			continue
		}
		unused = append(unused, d.pos+": "+key+" is exported but no non-test file names it: delete it, unexport it, or add it to keptHooks with the test that needs it")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
	for key := range keptHooks {
		if !needed[key] {
			t.Errorf("keptHooks lists %s, which is either gone or named by non-test code now: drop the entry", key)
		}
	}
}

// keptOptionFields are option fields (see TestOptionFieldsHaveCallers)
// that no non-test file of another package sets, kept on purpose, each
// with the test that sets it. The list is exact — an entry that stops
// being needed fails the test too.
var keptOptionFields = map[string]string{}

// TestOptionFieldsHaveCallers makes the options rule — a setting with one
// value in use is a constant — a tier-1 check: every exported field of a
// struct under internal/ named Config or Options, or whose name ends in
// Options, must be set by a non-test file of another package (cmd/ and
// bench/ included). Fields with a json tag are wire fields, set by
// decoding, and exempt.
//
// A field counts as set where it is a key of a composite literal of its
// struct (written out, or elided inside a slice or map literal), the left
// side of an assignment or ++/--, or under & (flag binding). Like
// TestExportedSurfaceIsUsed it is syntactic: the struct a selector x.F
// reaches is found from x's declaration in the enclosing function or
// package (a parameter, a var of a named type, a composite literal)
// through the module's struct declarations, embedded fields included.
// Where that finds nothing, x.F counts for a field F of every module
// package the file imports: the check errs towards passing.
func TestOptionFieldsHaveCallers(t *testing.T) {
	type file struct {
		dir     string
		f       *ast.File
		imports map[string]string // import name -> module directory
	}
	type fieldDecl struct {
		typ      string // "dir.Type" of the field's type, "" when it is no named type
		embedded bool
	}
	fset := token.NewFileSet()
	var files []file
	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			importPath := strings.Trim(imp.Path.Value, `"`)
			if dir, ok := strings.CutPrefix(importPath, "twophase/"); ok {
				name := filepath.Base(importPath)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = dir
			}
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f, imports})
	})

	// typeName names a type expression "dir.Type", or "" for anything but
	// a (pointer to a) named type.
	typeName := func(fl file, x ast.Expr) string {
		if star, ok := x.(*ast.StarExpr); ok {
			x = star.X
		}
		switch x := x.(type) {
		case *ast.Ident:
			return fl.dir + "." + x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && fl.imports[id.Name] != "" {
				return fl.imports[id.Name] + "." + x.Sel.Name
			}
		}
		return ""
	}

	type option struct{ key, pos string } // key: "dir.Type.Field"
	var options []option
	structs := map[string]map[string]fieldDecl{} // "dir.Type" -> field -> declaration
	pkgVars := map[string]string{}               // "dir.name" -> "dir.Type" of package-level vars
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range g.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for i, id := range spec.Names {
						if spec.Type != nil {
							pkgVars[fl.dir+"."+id.Name] = typeName(fl, spec.Type)
						} else if i < len(spec.Values) {
							if lit, ok := spec.Values[i].(*ast.CompositeLit); ok && lit.Type != nil {
								pkgVars[fl.dir+"."+id.Name] = typeName(fl, lit.Type)
							}
						}
					}
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					key := fl.dir + "." + spec.Name.Name
					isOptions := strings.HasPrefix(fl.dir, "internal/") &&
						(spec.Name.Name == "Config" || strings.HasSuffix(spec.Name.Name, "Options"))
					fields := map[string]fieldDecl{}
					for _, fd := range st.Fields.List {
						names, embedded := fd.Names, len(fd.Names) == 0
						if embedded { // the field is named by its type
							if typ := typeName(fl, fd.Type); typ != "" {
								_, name, _ := strings.Cut(typ[strings.LastIndex(typ, "/")+1:], ".")
								names = []*ast.Ident{{Name: name, NamePos: fd.Type.Pos()}}
							}
						}
						wire := fd.Tag != nil && strings.Contains(fd.Tag.Value, `json:"`)
						for _, id := range names {
							fields[id.Name] = fieldDecl{typeName(fl, fd.Type), embedded}
							if isOptions && id.IsExported() && !wire {
								options = append(options, option{key + "." + id.Name, fset.Position(id.Pos()).String()})
							}
						}
					}
					structs[key] = fields
				}
			}
		}
	}
	if len(options) == 0 {
		t.Fatal("no options struct found under internal/: the census is not looking at them any more")
	}

	// owner finds the struct that declares field name of typ, following
	// embedded fields, and the field's own type.
	var owner func(typ, name string, depth int) (string, string)
	owner = func(typ, name string, depth int) (string, string) {
		fields := structs[typ]
		if fd, ok := fields[name]; ok {
			return typ, fd.typ
		}
		if depth < 4 {
			for _, fd := range fields {
				if fd.embedded {
					if o, ft := owner(fd.typ, name, depth+1); o != "" {
						return o, ft
					}
				}
			}
		}
		return "", ""
	}

	set := map[string]bool{} // "dir.Type.Field", or "dir.*.Field" for an unresolved x.F
	for _, fl := range files {
		mark := func(typ, name string) {
			if o, _ := owner(typ, name, 0); o != "" && !strings.HasPrefix(o, fl.dir+".") {
				set[o+"."+name] = true
			}
		}
		vars := map[string]string{} // local name -> "dir.Type"; flat per top-level declaration
		var exprType func(x ast.Expr) string
		exprType = func(x ast.Expr) string {
			switch x := x.(type) {
			case *ast.Ident:
				if typ, ok := vars[x.Name]; ok {
					return typ
				}
				return pkgVars[fl.dir+"."+x.Name]
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && fl.imports[id.Name] != "" {
					return pkgVars[fl.imports[id.Name]+"."+x.Sel.Name]
				}
				if typ := exprType(x.X); typ != "" {
					_, ft := owner(typ, x.Sel.Name, 0)
					return ft
				}
			case *ast.ParenExpr:
				return exprType(x.X)
			case *ast.StarExpr:
				return exprType(x.X)
			case *ast.UnaryExpr:
				return exprType(x.X)
			case *ast.CompositeLit:
				if x.Type != nil {
					return typeName(fl, x.Type)
				}
			}
			return ""
		}
		setsField := func(x ast.Expr) {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if typ := exprType(sel.X); typ != "" {
				mark(typ, sel.Sel.Name)
				return
			}
			for _, dir := range fl.imports {
				if dir != fl.dir {
					set[dir+".*."+sel.Sel.Name] = true
				}
			}
		}
		params := func(fields *ast.FieldList) {
			if fields == nil {
				return
			}
			for _, fd := range fields.List {
				for _, id := range fd.Names {
					vars[id.Name] = typeName(fl, fd.Type)
				}
			}
		}
		elided := map[*ast.CompositeLit]string{} // literals whose type their enclosing literal gives
		for _, d := range fl.f.Decls {
			clear(vars)
			if fn, ok := d.(*ast.FuncDecl); ok {
				params(fn.Recv)
				params(fn.Type.Params)
				params(fn.Type.Results)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					params(n.Type.Params)
				case *ast.ValueSpec:
					for i, id := range n.Names {
						if n.Type != nil {
							vars[id.Name] = typeName(fl, n.Type)
						} else if i < len(n.Values) {
							vars[id.Name] = exprType(n.Values[i])
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.DEFINE && len(n.Rhs) == len(n.Lhs) {
							vars[id.Name] = exprType(n.Rhs[i])
						} else if n.Tok != token.DEFINE {
							setsField(lhs)
						}
					}
				case *ast.IncDecStmt:
					setsField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setsField(n.X)
					}
				case *ast.CompositeLit:
					typ := elided[n]
					if n.Type != nil {
						typ = typeName(fl, n.Type)
					}
					var elt string
					switch lt := n.Type.(type) {
					case *ast.ArrayType:
						elt = typeName(fl, lt.Elt)
					case *ast.MapType:
						elt = typeName(fl, lt.Value)
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && typ != "" {
								mark(typ, key.Name)
							}
							e = kv.Value
						}
						if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
							e = u.X
						}
						if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && elt != "" {
							elided[lit] = elt
						}
					}
				}
				return true
			})
		}
	}

	needed := map[string]bool{}
	for _, o := range options {
		typ := o.key[:strings.LastIndex(o.key, ".")]
		dir, _, _ := strings.Cut(typ, ".")
		name := o.key[len(typ)+1:]
		if set[o.key] || set[dir+".*."+name] {
			continue
		}
		key := filepath.Base(o.key) // "pkg.Type.Field"
		if keptOptionFields[key] != "" {
			needed[key] = true
			continue
		}
		t.Errorf("%s: %s is set by no non-test file of another package: make it a constant, or add it to keptOptionFields with the test that needs it", o.pos, key)
	}
	for key := range keptOptionFields {
		if !needed[key] {
			t.Errorf("keptOptionFields lists %s, which is gone or set by another package now: drop the entry", key)
		}
	}
}

// ownPools are the non-test files outside bench/ allowed to coordinate
// goroutines with their own sync.WaitGroup instead of internal/fanout.
// The list is exact — an entry that stops being needed fails the test too.
var ownPools = map[string]string{
	"internal/fanout/fanout.go": "the one bounded fan-out itself",
}

// TestOneFanOut makes "one bounded fan-out" a tier-1 check: a non-test
// file outside bench/ that names sync.WaitGroup is hand-rolling a pool
// (width, cancellation, first-error and panic rules of its own) and must
// go through fanout.Each / fanout.Errors instead.
func TestOneFanOut(t *testing.T) {
	fset := token.NewFileSet()
	needed := map[string]bool{}
	walkGoFiles(t, fset, false, func(path string, f *ast.File) {
		path = filepath.ToSlash(path)
		if strings.HasPrefix(path, "bench/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "WaitGroup" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "sync" {
				return true
			}
			if ownPools[path] != "" {
				needed[path] = true
			} else {
				t.Errorf("%s: sync.WaitGroup outside internal/fanout: run the items through fanout.Each or fanout.Errors", fset.Position(sel.Pos()))
			}
			return true
		})
	})
	for path := range ownPools {
		if !needed[path] {
			t.Errorf("ownPools lists %s, which is gone or no longer names sync.WaitGroup: drop the entry", path)
		}
	}
}

// fusedFree are the kernels every selection's floats come out of. The rule
// below already covers them; naming them makes the test fail, not pass
// vacuously, if one is renamed or inlined away.
var fusedFree = []string{
	"trainer.(*Run).sgdPass",
	"trainer.(*Run).fusedStep",
	"numeric.(*Matrix).MulVec",
	"numeric.mulFrame",
	"proxy.leepSweep",
}

// oraclePackages are the packages whose tests hold this module's floats to
// an oracle — a replaced kernel, a hand computation, a recorded curve —
// often bit for bit. On an architecture that fuses, an unconverted product
// in the oracle moves its bits while the converted kernel's stay put.
var oraclePackages = []string{"numeric", "trainer", "proxy", "selection", "recall", "lsq", "perfmatrix", "core"}

// fusedTestSites are the fused multiply-adds the arm64 test binaries of
// oraclePackages keep, by package/file:line: each feeds only a check with a
// tolerance, so rounding once or twice cannot flip it. A product that
// feeds an exact comparison is converted instead. The list is exact — a
// site that stops fusing fails the test until its entry goes.
var fusedTestSites = map[string]string{
	"numeric/cholesky_test.go:46":   "L·Lᵀ against A, within 1e-9",
	"numeric/matrix_test.go:59":     "RandomMatrix second moment, within 0.05",
	"numeric/matrix_test.go:63":     "RandomMatrix variance, within 0.05",
	"numeric/rng_test.go:99":        "Norm second moment, within 0.03",
	"numeric/rng_test.go:102":       "Norm variance, within 0.03",
	"core/lsq_strategy_test.go:189": "the lsq pass's charge, within 1e-12",
}

// fusedOp matches a scalar fused multiply-add as go tool objdump prints it
// on the four architectures whose Go backend fuses: arm64 and riscv64
// (FMADDD, FMSUBD, FNMADDS, ...), ppc64le (FMADD, FMSUBS, FNMSUB, ...) and
// s390x (MADBR, MAEBR, MSDBR, MSEBR).
var fusedOp = regexp.MustCompile(`\b(FN?M(ADD|SUB)[SD]?|M[AS][DE]BR?)\b`)

// TestNoFusedMultiplyAdd makes "a product never feeds an add unconverted"
// a tier-1 check where it can be checked without the hardware: for every
// architecture Go fuses on, it cross-compiles ./cmd/serve, ./cmd/experiments,
// ./cmd/apiserver and ./cmd/gateway (between them every package under
// internal/ a result or a served answer comes out of, admission's token
// buckets included; toolchain only, no network), disassembles twophase/internal/
// and fails on any fused multiply-add, each one a product that feeds an add
// without an explicit float64(a*b) conversion and so rounds once where amd64
// rounds twice. Inlined callees count under their caller. The oracles are
// held to the same rule: the arm64 test binaries of oraclePackages may fuse
// only at the tolerance-checked sites fusedTestSites lists. amd64 has no
// such instruction in Go, so every bit-identity suite in this repository
// passes there regardless.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles four binaries for four architectures; skipped in -short")
	}
	const prefix = "twophase/internal/"
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			got := map[string]int{} // every function seen, with its fused count
			for _, cmd := range []string{"serve", "experiments", "apiserver", "gateway"} {
				bin := filepath.Join(t.TempDir(), cmd+"."+arch)
				build := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd)
				build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
				if out, err := build.CombinedOutput(); err != nil {
					t.Fatalf("cross-compiling cmd/%s: %v\n%s", cmd, err, out)
				}
				asm, err := exec.Command("go", "tool", "objdump", "-s", prefix, bin).Output()
				if err != nil {
					t.Fatalf("go tool objdump: %v", err)
				}
				var fn string
				for _, line := range strings.Split(string(asm), "\n") {
					if name, ok := strings.CutPrefix(line, "TEXT "+prefix); ok {
						fn, _, _ = strings.Cut(name, "(SB)")
						got[fn] = 0 // a function several binaries link is counted in the last one
					} else if fusedOp.MatchString(line) {
						got[fn]++
					}
				}
			}
			for _, fn := range fusedFree {
				if _, ok := got[fn]; !ok {
					t.Errorf("%s is in no binary: the census is not looking at the kernel any more; name its successor in fusedFree", fn)
				}
			}
			var bad []string
			for fn, n := range got {
				if n > 0 {
					bad = append(bad, fmt.Sprintf("%s: %d fused multiply-adds: write each product that feeds an add as float64(a*b)", fn, n))
				}
			}
			sort.Strings(bad)
			for _, b := range bad {
				t.Error(b)
			}
		})
	}
	t.Run("arm64 oracle tests", func(t *testing.T) {
		seen := map[string]bool{}
		var bad []string
		for _, pkg := range oraclePackages {
			bin := filepath.Join(t.TempDir(), pkg+".test")
			build := exec.Command("go", "test", "-c", "-o", bin, "./internal/"+pkg)
			build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("cross-compiling the tests of internal/%s: %v\n%s", pkg, err, out)
			}
			asm, err := exec.Command("go", "tool", "objdump", "-s", prefix, bin).Output()
			if err != nil {
				t.Fatalf("go tool objdump: %v", err)
			}
			for _, line := range strings.Split(string(asm), "\n") {
				if !fusedOp.MatchString(line) {
					continue
				}
				site := pkg + "/" + strings.Fields(line)[0] // objdump's first column is file:line
				if fusedTestSites[site] == "" {
					bad = append(bad, site+": a fused multiply-add in an oracle test: write the product as float64(a*b), or list the site in fusedTestSites if only a tolerance reads it")
				}
				seen[site] = true
			}
		}
		for site := range fusedTestSites {
			if !seen[site] {
				bad = append(bad, site+" is in fusedTestSites but fuses no more: drop the entry")
			}
		}
		sort.Strings(bad)
		for _, b := range bad {
			t.Error(b)
		}
	})
}

// mdName matches a Markdown file name, with any directory prefix.
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestCitedDocsExist makes "no dangling citation" a tier-1 check: a
// Markdown file named in a Go comment (tests included) or in README.md
// must be in the repository, at that path from the root or from the
// citing file's directory.
func TestCitedDocsExist(t *testing.T) {
	check := func(from, pos, text string) {
		for _, name := range mdName.FindAllString(text, -1) {
			_, errRoot := os.Stat(name)
			_, errDir := os.Stat(filepath.Join(filepath.Dir(from), name))
			if errRoot != nil && errDir != nil {
				t.Errorf("%s cites %s, which is not in the repository: repoint the citation or delete it", pos, name)
			}
		}
	}
	fset := token.NewFileSet()
	for _, tests := range []bool{false, true} {
		walkGoFiles(t, fset, tests, func(path string, f *ast.File) {
			for _, g := range f.Comments {
				check(path, fset.Position(g.Pos()).String(), g.Text())
			}
		})
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", "README.md", string(readme))
}

// runFlag matches a go test -run pattern in a CI step or a Makefile
// recipe, quoted or bare, after "-run " or "-run=".
var runFlag = regexp.MustCompile(`-run[= ]'?([^'\s]+)'?`)

// pkgArg matches a package path argument of a go test command.
var pkgArg = regexp.MustCompile(`\./[\w./-]+`)

// TestRunPatternsNameTests makes "a step that selects tests by name runs
// them" a tier-1 check. go test reports "no tests to run" and passes when
// a -run pattern matches nothing, so a renamed or moved oracle test would
// silently drop out of the arm64 job or make chaos. Every alternative of
// every -run pattern in .github/workflows/ci.yml and the Makefile must
// match a Test, Fuzz or Example func declared in a _test.go file of a
// package the same command tests. The pattern "^$" (run nothing, for
// bench and fuzz steps) is exempt.
func TestRunPatternsNameTests(t *testing.T) {
	fset := token.NewFileSet()
	funcs := make(map[string][]string) // package dir -> its test func names
	walkGoFiles(t, fset, true, func(path string, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					funcs[filepath.Dir(path)] = append(funcs[filepath.Dir(path)], fn.Name.Name)
				}
			}
		}
	})
	checked := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := runFlag.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := m[1]
			if file == "Makefile" {
				pattern = strings.ReplaceAll(pattern, "$$", "$")
			}
			if pattern == "^$" {
				continue
			}
			var dirs []string
			for _, p := range pkgArg.FindAllString(line, -1) {
				dirs = append(dirs, filepath.Clean(p))
			}
			if len(dirs) == 0 {
				t.Errorf("%s:%d: -run %s tests no ./ package this check can read", file, i+1, pattern)
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: -run alternative %q: %v", file, i+1, alt, err)
					continue
				}
				checked++
				if !slices.ContainsFunc(dirs, func(dir string) bool { return slices.ContainsFunc(funcs[dir], re.MatchString) }) {
					t.Errorf("%s:%d: -run alternative %q matches no test func in %v: the step would report \"no tests to run\" and pass", file, i+1, alt, dirs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern to check: the guard proves nothing")
	}
	t.Logf("%d -run alternatives checked", checked)
}

// walkGoFiles parses the module's _test.go files (tests) or its other .go
// files (!tests), hidden and testdata directories skipped, and hands each
// to fn with its path.
func walkGoFiles(t *testing.T, fset *token.FileSet, tests bool, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
