//go:build ignore

// Unlinked compares a module's declared functions against the symbols its
// binaries link; scripts/unlinked.sh builds the binaries and runs it:
//
//	go run scripts/unlinked.go -binaries N -allow FILE -symbols FILE -packages FILE
//
// -symbols holds one linked symbol per line, as `go tool nm` prints its
// name: generic instantiations keep their shape arguments
// (SortByNodePair[go.shape.struct { ... }]), which may contain spaces.
// -packages holds one line per package: the import path, then its non-test
// Go files. Each function is keyed the way the linker names it: pkg.F,
// pkg.T.M for a value receiver, pkg.(*T).M for a pointer receiver, with type
// parameters dropped. Positions are reported relative to the working
// directory. The exit status is 1 when an unlinked function is missing from
// the allowlist or an allowlist entry matches nothing.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// fn is one declared function or method.
type fn struct {
	key   string
	pos   string
	lines int
}

// allowEntry is one allowlist line: a key, or a prefix ending in "*".
type allowEntry struct {
	pattern string
	line    int
	used    bool
}

func main() {
	binaries := flag.Int("binaries", 0, "number of binaries the symbols came from")
	allowPath := flag.String("allow", "", "allowlist file")
	symbolsPath := flag.String("symbols", "", "linked symbol names, one per line")
	packagesPath := flag.String("packages", "", "package lines: import path, then files")
	flag.Parse()

	linked, err := readSymbols(*symbolsPath)
	check(err)
	fns, err := declared(*packagesPath)
	check(err)
	allow, err := readAllow(*allowPath)
	check(err)

	nLinked, nAllowed, allowedLines, unlisted, stale := 0, 0, 0, 0, 0
	for _, f := range fns {
		if linked[f.key] {
			nLinked++
		} else if e := match(allow, f.key); e != nil {
			e.used = true
			nAllowed++
			allowedLines += f.lines
		} else {
			fmt.Printf("%s: %s (%d lines) is linked by no binary and not in %s\n", f.pos, f.key, f.lines, *allowPath)
			unlisted++
		}
	}
	for _, e := range allow {
		if !e.used {
			fmt.Printf("%s:%d: %s matches no unlinked function; drop the entry\n", *allowPath, e.line, e.pattern)
			stale++
		}
	}
	fmt.Printf("unlinked: %d functions declared, %d linked by %d binaries, %d allowlisted (%d lines, %d entries), %d unlisted\n",
		len(fns), nLinked, *binaries, nAllowed, allowedLines, len(allow), unlisted)
	if unlisted+stale > 0 {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(2)
	}
}

// readSymbols returns the linked symbol names with type arguments dropped,
// so pkg.(*LRU[go.shape.string,...]).Get becomes pkg.(*LRU).Get.
func readSymbols(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		out[dropTypeArgs(sc.Text())] = true
	}
	return out, sc.Err()
}

// dropTypeArgs removes every bracketed group, nested ones included.
func dropTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declared parses every listed file and returns its functions and methods,
// sorted by key. init functions are skipped: the linker numbers them.
func declared(path string) ([]fn, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []fn
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		pkg := fields[0]
		for _, file := range fields[1:] {
			af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				start := fset.Position(fd.Pos())
				rel, err := filepath.Rel(root, start.Filename)
				if err != nil {
					rel = start.Filename
				}
				out = append(out, fn{
					key:   pkg + "." + recvPrefix(fd) + fd.Name.Name,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: fset.Position(fd.End()).Line - start.Line + 1,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// recvPrefix renders a method's receiver as the linker does: "T." or "(*T).".
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	star := false
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = true, s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	name := t.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// readAllow reads the allowlist: "<key or prefix*> <reason>" per line, with
// blank lines and #-comments skipped. Every entry needs a reason.
func readAllow(path string) ([]*allowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, fields[0])
		}
		out = append(out, &allowEntry{pattern: fields[0], line: i + 1})
	}
	return out, nil
}

// match returns the first entry naming key exactly or by prefix.
func match(allow []*allowEntry, key string) *allowEntry {
	for _, e := range allow {
		if p, ok := strings.CutSuffix(e.pattern, "*"); ok && strings.HasPrefix(key, p) || e.pattern == key {
			return e
		}
	}
	return nil
}
