package dql

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
)

// ErrQuery reports semantic (non-syntax) query failures.
var ErrQuery = errors.New("dql: query error")

// Engine executes DQL statements against a DLV repository (dlv query).
type Engine struct {
	repo     *dlv.Repo
	named    map[string]Stmt
	datasets map[string][]dnn.Example
	// Seed drives candidate training in evaluate statements.
	Seed int64
}

// NewEngine wraps a repository.
func NewEngine(repo *dlv.Repo) *Engine {
	return &Engine{
		repo:     repo,
		named:    map[string]Stmt{},
		datasets: map[string][]dnn.Example{},
	}
}

// RegisterQuery stores a named query, referencable as `from "<name>"` in
// evaluate statements (the paper's `from "query3"`).
func (e *Engine) RegisterQuery(name, text string) error {
	stmt, err := Parse(text)
	if err != nil {
		return err
	}
	e.named[name] = stmt
	return nil
}

// RegisterDataset makes labelled examples available to evaluate statements
// under the given input_data name.
func (e *Engine) RegisterDataset(name string, examples []dnn.Example) {
	e.datasets[name] = examples
}

// Result carries the output of a statement; exactly one field group is
// populated depending on the statement kind.
type Result struct {
	// Versions: select output.
	Versions []*dlv.Version
	// Defs: slice and construct output (derived network definitions).
	Defs []*dnn.NetDef
	// Candidates: evaluate output, best first.
	Candidates []Candidate
}

// Candidate is one evaluated (model, hyperparameter) combination.
type Candidate struct {
	Def    *dnn.NetDef
	Config EvalConfig
	Loss   float64
	Acc    float64
}

// Run parses and executes one statement.
func (e *Engine) Run(text string) (*Result, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return e.Exec(stmt)
}

// Exec executes a parsed statement.
func (e *Engine) Exec(stmt Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		vs, err := e.execSelect(s.Where)
		if err != nil {
			return nil, err
		}
		return &Result{Versions: vs}, nil
	case *SliceStmt:
		defs, err := e.execSlice(s)
		if err != nil {
			return nil, err
		}
		return &Result{Defs: defs}, nil
	case *ConstructStmt:
		defs, err := e.execConstruct(s)
		if err != nil {
			return nil, err
		}
		return &Result{Defs: defs}, nil
	case *EvaluateStmt:
		cands, err := e.execEvaluate(s)
		if err != nil {
			return nil, err
		}
		return &Result{Candidates: cands}, nil
	default:
		return nil, fmt.Errorf("%w: unknown statement type %T", ErrQuery, stmt)
	}
}

// execSelect filters the repository's versions by the where conditions.
func (e *Engine) execSelect(where []Cond) ([]*dlv.Version, error) {
	all, err := e.repo.List()
	if err != nil {
		return nil, err
	}
	var out []*dlv.Version
	for _, v := range all {
		ok, err := matchVersion(v, where)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

func matchVersion(v *dlv.Version, where []Cond) (bool, error) {
	for _, c := range where {
		var ok bool
		var err error
		if c.Selector != "" {
			ok, err = matchGraphCond(v.NetDef, c)
		} else {
			ok, err = matchAttrCond(v, c)
		}
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func matchAttrCond(v *dlv.Version, c Cond) (bool, error) {
	var actual any
	switch c.Attr {
	case "name":
		actual = v.Name
	case "creation_time", "created":
		actual = v.Created
	case "accuracy":
		actual = v.Accuracy
	case "id":
		actual = float64(v.ID)
	case "msg", "message":
		actual = v.Msg
	default:
		// Unknown attributes fall back to hyperparameter metadata.
		hv, ok := v.Hyper[c.Attr]
		if !ok {
			return false, nil
		}
		actual = hv
	}
	switch av := actual.(type) {
	case string:
		if c.Op == "like" {
			return globLike(c.Value.Str, av), nil
		}
		if c.Value.IsNum {
			return false, fmt.Errorf("%w: comparing text attribute %q with a number", ErrQuery, c.Attr)
		}
		return cmpOrdered(strings.Compare(av, c.Value.Str), c.Op)
	case float64:
		if !c.Value.IsNum {
			return false, fmt.Errorf("%w: comparing numeric attribute %q with a string", ErrQuery, c.Attr)
		}
		switch {
		case av < c.Value.Num:
			return cmpOrdered(-1, c.Op)
		case av > c.Value.Num:
			return cmpOrdered(1, c.Op)
		default:
			return cmpOrdered(0, c.Op)
		}
	default:
		return false, fmt.Errorf("%w: unsupported attribute type", ErrQuery)
	}
}

func cmpOrdered(cmp int, op string) (bool, error) {
	switch op {
	case "=":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	case "like":
		return false, fmt.Errorf("%w: LIKE on non-text attribute", ErrQuery)
	default:
		return false, fmt.Errorf("%w: unknown operator %q", ErrQuery, op)
	}
}

// globLike is SQL LIKE with % and _ wildcards (iterative single-star
// backtracking, O(len(p)·len(s)) worst case).
func globLike(p, s string) bool {
	i, j := 0, 0
	starP, starS := -1, 0
	for i < len(s) {
		switch {
		case j < len(p) && (p[j] == s[i] || p[j] == '_'):
			i++
			j++
		case j < len(p) && p[j] == '%':
			starP, starS = j, i
			j++
		case starP >= 0:
			starS++
			i = starS
			j = starP + 1
		default:
			return false
		}
	}
	for j < len(p) && p[j] == '%' {
		j++
	}
	return j == len(p)
}

// matchGraphCond evaluates m["sel"].next has TEMPLATE: the selector must
// match at least one node, and every matched node must have a next/prev
// neighbour matching the template (or none, when negated with `not has`).
func matchGraphCond(def *dnn.NetDef, c Cond) (bool, error) {
	sel, err := CompileSelector(c.Selector)
	if err != nil {
		return false, err
	}
	matched := 0
	for _, n := range def.Nodes {
		ok, _ := sel.Match(n.Name)
		if !ok {
			continue
		}
		matched++
		var neighbours []string
		if c.Direction == "next" {
			neighbours = def.Next(n.Name)
		} else {
			neighbours = def.Prev(n.Name)
		}
		has := false
		for _, nb := range neighbours {
			if nodeMatchesTemplate(def.Node(nb), c.Template) {
				has = true
				break
			}
		}
		if has == c.Negated {
			return false, nil
		}
	}
	return matched > 0, nil
}

// nodeMatchesTemplate tests a node against POOL("MAX")-style templates: the
// kind must match; for pool templates the argument is the mode; for other
// kinds a non-empty argument must equal the node name.
func nodeMatchesTemplate(n *dnn.LayerSpec, t NodeTemplate) bool {
	if n == nil || n.Kind != t.Kind {
		return false
	}
	if t.Arg == "" {
		return true
	}
	if t.Kind == dnn.KindPool {
		return strings.EqualFold(n.Mode, t.Arg)
	}
	return n.Name == t.Arg
}

// newestPerName keeps only the newest version of each model name; slices
// and constructs operate on current models, not their whole history.
func newestPerName(vs []*dlv.Version) []*dlv.Version {
	byName := map[string]*dlv.Version{}
	for _, v := range vs {
		if cur, ok := byName[v.Name]; !ok || v.ID > cur.ID {
			byName[v.Name] = v
		}
	}
	out := make([]*dlv.Version, 0, len(byName))
	for _, v := range byName {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
