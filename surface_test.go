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
	"faultinject.Reset":         "disarms the process-wide schedule; every test that Activates defers it",
	"shard.Owner":               "a key's primary owner; bench/stats_test.go splits batches by it",
	"datahub.CVBenchmarks":      "only datahub calls it, but it is one of a pair with NLPBenchmarks, which six other packages' tests build matrices from",
	"modelhub.CVSpecs":          "only modelhub calls it, but it is one of a pair with NLPSpecs, which five other packages' tests build repositories from",
}

// harnessPackages are internal packages that are test support by design:
// every caller of their exported names is a _test.go file of the same
// package, so the rule below has nothing to say about them.
var harnessPackages = map[string]string{
	"internal/chaos": "shared helpers of the chaos suites (contract_test.go, e2e_test.go); no non-test importer",
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
// is unexported. Types, consts and vars are exempt from that second rule
// — a type's name is what a caller holds its values by, and the contract's
// sentinels, wire codes and enum sets are exported as sets.
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
		add := func(id *ast.Ident, method, fnDecl bool) {
			declIdents[id] = true
			if id.IsExported() {
				declared = append(declared, decl{f.Name.Name, id.Name, method, fnDecl, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Recv != nil, d.Recv == nil)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, false, false)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, false, false)
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

	needed := map[string]bool{}
	var unused []string
	for _, d := range declared {
		key := d.pkg + "." + d.name
		if d.method && (named[d.name] || stdlibHooks[d.name]) || !d.method && qualified[key] {
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

// ownPools are the non-test files outside bench/ allowed to coordinate
// goroutines with their own sync.WaitGroup instead of internal/fanout.
// The list is exact — an entry that stops being needed fails the test too.
var ownPools = map[string]string{
	"internal/fanout/fanout.go": "the one bounded fan-out itself",
	"cmd/loadgen/main.go":       "open-loop load driver: arrivals are paced by a clock, not claimed by workers",
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
// rounds twice. Inlined callees count under their caller. amd64 has no such
// instruction in Go, so every bit-identity suite in this repository passes
// there regardless.
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
