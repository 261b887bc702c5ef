package repro

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReach is `make reach`'s second pass (scripts/reach.sh is the
// first: packages). Every package-level name, method and constant a
// non-test file of internal/ declares must be mentioned by some non-test
// file of the module — its own package, another one, a command, bench/
// or an example — or stand in scripts/reach.allow with a reason. A name
// only its own unit test calls is not on any path from a program: delete
// it with the test, or say in the allow-list which seam it is. An
// allow-list entry that matches no unmentioned name fails too, so the
// list cannot outlive what it excuses.
//
// Methods reached only through an interface are not flagged: a method
// counts as mentioned when its type implements an interface that
// declares it, whether the module's own or one of a package it imports
// (fmt.Stringer, io.Writer, http.Handler, …).
func TestReach(t *testing.T) {
	l := &loader{t: t, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				_, err = l.Import("repro/" + filepath.ToSlash(path))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var (
		decls  = map[types.Object]string{} // candidate -> its printed name
		used   = map[types.Object]bool{}   // objects some non-test file mentions
		ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		seen   = map[*types.Package]bool{}
	)
	addIfaces := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for path, pkg := range l.pkgs {
		info := l.infos[path]
		for _, o := range info.Uses {
			switch o := o.(type) {
			case *types.Func:
				used[o.Origin()] = true
			default:
				used[o] = true
			}
		}
		addIfaces(pkg)
		for _, ip := range pkg.Imports() {
			addIfaces(ip)
		}
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for id, o := range info.Defs {
			if o == nil || id.Name == "_" || id.Name == "init" {
				continue
			}
			if fn, ok := o.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				if named := receiver(fn); named != nil {
					decls[o] = pkg.Name() + "." + named.Obj().Name() + "." + o.Name()
				}
			} else if o.Parent() == pkg.Scope() {
				decls[o] = pkg.Name() + "." + o.Name()
			}
		}
	}

	// A method some implemented interface declares is reached through it.
	viaInterface := func(o types.Object) bool {
		fn, ok := o.(*types.Func)
		if !ok || receiver(fn) == nil {
			return false
		}
		ptr := types.NewPointer(receiver(fn))
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
					return true
				}
			}
		}
		return false
	}

	allowed := readAllowList(t, "scripts/reach.allow")
	matched := map[string]bool{}
	var unmentioned []string
	for o, name := range decls {
		if used[o] || viaInterface(o) {
			continue
		}
		if _, ok := allowed[name]; ok {
			matched[name] = true
			continue
		}
		unmentioned = append(unmentioned, fmt.Sprintf("%s (%s)", name, l.fset.Position(o.Pos())))
	}
	sort.Strings(unmentioned)
	for _, u := range unmentioned {
		t.Errorf("no non-test file mentions %s: delete it with its tests, or give scripts/reach.allow the reason it stays", u)
	}
	for name := range allowed {
		if !matched[name] {
			t.Errorf("scripts/reach.allow lists %s, which a non-test file mentions or nothing declares: drop the entry", name)
		}
	}
}

// receiver returns the named type a method is declared on, nil for a
// plain function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, _ := rt.(*types.Named)
	return named
}

// loader type-checks the module's packages from their non-test files,
// once each and in one universe (a package and its importers see the
// same objects), recording what every identifier resolves to; everything
// outside the module comes from the standard library's sources.
type loader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "repro/")
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil // a directory of directories
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	l.pkgs[path], l.infos[path] = p, info
	return p, err
}

// readAllowList reads name -> reason: `#` lines give the reason for the
// entries that follow them, a blank line ends the group, and an entry
// without a reason is an error.
func readAllowList(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	reason := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			reason = ""
		case strings.HasPrefix(line, "#"):
			reason += strings.TrimPrefix(line, "#")
		case reason == "":
			t.Errorf("%s: %s has no reason (a # line above it)", path, line)
		default:
			allowed[line] = reason
		}
	}
	return allowed
}
