package llmprism

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedBound is the census's ceiling on function lines, in the
// packages llmprismd and llmprism link, that neither binary reaches. It is
// the count when the bound was last set: the helpers the frozen bench/
// names, public API an example calls, MonitorStream.Pending and Watermark,
// and the testbed-only and test-only functions ROADMAP.md lists under the
// linker-checked product boundary. Lower it when a change removes such
// lines; raising it widens the product boundary and needs saying so.
const unreachedBound = 348

const modulePath = "github.com/llmprism/llmprism"

// TestLinkerCensus builds both shipped binaries with the linker's
// dependency dump and checks every function declared in the module
// packages they link against what the linker kept. It prints the product's
// non-test lines (those packages), the module's non-test lines outside
// bench/, and the function lines neither binary reaches, and fails when
// the last exceeds unreachedBound.
func TestLinkerCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both binaries with -ldflags=-dumpdep")
	}
	bins := []string{"./cmd/llmprismd", "./cmd/llmprism"}

	// A main package's symbols are named main.*, so each is looked up in
	// its own binary's dump; every other package in both.
	mains := make(map[string]map[string]bool)
	both := make(map[string]bool)
	for _, bin := range bins {
		set := reachedSymbols(runGo(t, "build", "-o", filepath.Join(t.TempDir(), "bin"),
			"-gcflags=all=-l", "-ldflags=-dumpdep", bin))
		mains[modulePath+strings.TrimPrefix(bin, ".")] = set
		for sym := range set {
			both[sym] = true
		}
	}

	type pkg struct {
		path, dir string
		files     []string
	}
	var pkgs []pkg
	listed := runGo(t, append([]string{"list", "-deps", "-f",
		`{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`}, bins...)...)
	for _, line := range strings.Split(strings.TrimSpace(listed), "\n") {
		f := strings.Split(line, "\t")
		if len(f) == 3 && (f[0] == modulePath || strings.HasPrefix(f[0], modulePath+"/")) {
			pkgs = append(pkgs, pkg{f[0], f[1], strings.Fields(f[2])})
		}
	}

	var product, unreached int
	var misses []string
	fset := token.NewFileSet()
	for _, p := range pkgs {
		prefix, reached := p.path, both
		if set, ok := mains[p.path]; ok {
			prefix, reached = "main", set
		}
		for _, name := range p.files {
			src, err := os.ReadFile(filepath.Join(p.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			lines := codeLines(src)
			product += lines[len(lines)-1]
			file, err := parser.ParseFile(fset, filepath.Join(p.dir, name), src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := prefix + "." + funcKey(fd)
				if reached[key] {
					continue
				}
				from, to := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
				n := lines[to] - lines[from-1]
				unreached += n
				misses = append(misses, strings.TrimPrefix(key, modulePath+"/")+"\t"+strconv.Itoa(n))
			}
		}
	}

	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == "bench":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines := codeLines(src)
		total += lines[len(lines)-1]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	sort.Strings(misses)
	t.Logf("unreached functions:\n%s", strings.Join(misses, "\n"))
	t.Logf("product lines %d (%d packages), total lines %d, unreached function lines %d (bound %d)",
		product, len(pkgs), total, unreached, unreachedBound)
	if unreached > unreachedBound {
		t.Errorf("%d function lines in the linked packages are reached by neither binary, above the bound %d",
			unreached, unreachedBound)
	}
}

// reachedSymbols reads a -dumpdep edge list ("from -> to" lines) and
// returns the module's symbols in it, normalized, together with every
// prefix of each that ends before a '.', so that a closure (F.func1) or an
// auxiliary symbol (F.arginfo1) marks its function F.
func reachedSymbols(dump string) map[string]bool {
	set := make(map[string]bool)
	for _, line := range strings.Split(dump, "\n") {
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			s, ok := normalizeSymbol(sym)
			if !ok {
				continue
			}
			for i := range s {
				if s[i] == '.' {
					set[s[:i]] = true
				}
			}
			set[s] = true
		}
	}
	return set
}

// normalizeSymbol maps a linker symbol of the module to the name funcKey
// gives its declaration: type arguments, which nest, are dropped, and a
// pointer receiver is written like a value one. ok is false for symbols of
// other packages.
func normalizeSymbol(sym string) (string, bool) {
	if !strings.HasPrefix(sym, modulePath) && !strings.HasPrefix(sym, "main.") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String()), true
}

// funcKey names a declaration the way normalizeSymbol names its symbol,
// without the package: "F", or "T.M" for either receiver kind.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// codeLines returns the running count of code lines (not blank, not a
// line comment) through each line of src: element i counts lines 1..i.
func codeLines(src []byte) []int {
	counts := []int{0}
	for _, line := range bytes.Split(bytes.TrimSuffix(src, []byte("\n")), []byte("\n")) {
		trimmed := bytes.TrimSpace(line)
		n := counts[len(counts)-1]
		if len(trimmed) > 0 && !bytes.HasPrefix(trimmed, []byte("//")) {
			n++
		}
		counts = append(counts, n)
	}
	return counts
}

func TestReachedSymbols(t *testing.T) {
	const m = modulePath + "/internal/"
	dump := "main.run -> " + m + "pool.Map[go.shape.struct { a [2]int; b map[string][]int }]\n" +
		"main.run -> " + m + "stream.(*Engine[go.shape.*uint8]).Ready\n" +
		"main.run -> " + m + "flow.Frame.Len\n" +
		m + "session.(*Manager).Close -> " + m + "session.(*Manager).Close.func1.2\n" +
		"runtime.main -> go:string.\"[\"\n"
	set := reachedSymbols(dump)
	for _, key := range []string{"main.run", m + "pool.Map", m + "stream.Engine.Ready", m + "flow.Frame.Len", m + "session.Manager.Close"} {
		if !set[key] {
			t.Errorf("%s not reached", key)
		}
	}
	for _, key := range []string{m + "pool.Map[go", m + "flow.Frame.All", "runtime.main"} {
		if set[key] {
			t.Errorf("%s reached", key)
		}
	}
}

func runGo(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}
