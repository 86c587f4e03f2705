package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// apihygiene keeps library packages embeddable: a package under
// <module>/internal/ is linked into the server, the CLI, and tests alike,
// so it must never write to process-global streams, kill the process, or
// synchronize by sleeping.
//
//   - fmt.Print / fmt.Printf / fmt.Println write to stdout — return values
//     or accept an io.Writer instead;
//   - log.Fatal* / log.Panic* / os.Exit terminate the caller's process;
//   - time.Sleep is not synchronization;
//   - panic is reserved for documented invariant checks: allowed only when
//     the enclosing function's doc comment says it panics.
var analyzerAPIHygiene = &Analyzer{
	Name: "apihygiene",
	Doc:  "stdout writes, process exits, time.Sleep, and undocumented panics in library packages",
	Run:  runAPIHygiene,
}

// fatalCallees terminate or bypass the caller's control flow.
var fatalCallees = map[string]string{
	"fmt.Print":   "writes to stdout",
	"fmt.Printf":  "writes to stdout",
	"fmt.Println": "writes to stdout",
	"log.Fatal":   "exits the process",
	"log.Fatalf":  "exits the process",
	"log.Fatalln": "exits the process",
	"log.Panic":   "panics with global logging",
	"log.Panicf":  "panics with global logging",
	"log.Panicln": "panics with global logging",
	"os.Exit":     "exits the process",
	"log.Print":   "writes to the global logger",
	"log.Printf":  "writes to the global logger",
	"log.Println": "writes to the global logger",
}

func runAPIHygiene(pass *Pass) {
	if !pass.InLibrary() {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// Calls in package-level initializers are checked too; the panic
			// rule needs a doc comment, so it applies to function
			// declarations alone.
			fd, _ := decl.(*ast.FuncDecl)
			panicDocumented := fd != nil && fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "panic")
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path := calleePath(pass.Info, call)
				if why, bad := fatalCallees[path]; bad {
					pass.Reportf(call.Pos(), "%s %s; library code must not", path, why)
					return true
				}
				if path == "time.Sleep" {
					pass.Reportf(call.Pos(), "time.Sleep in library code: sleeping is not synchronization")
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && fd != nil {
					if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin && !panicDocumented {
						pass.Reportf(call.Pos(), "panic outside a documented invariant check; return an error or document the panic in %s's doc comment", fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}
