package dql

import (
	"fmt"

	"modelhub/internal/dnn"
)

// execSlice implements Query 2: cut the sub-network between the input and
// output boundary nodes out of every matching model. In a DAG the slice is
// every node on a path from the input node to the output node; the new
// definition's input shape is the input node's input shape in the model's
// graph.
func (e *Engine) execSlice(s *SliceStmt) ([]*dnn.NetDef, error) {
	vs, err := e.execSelect(s.Where)
	if err != nil {
		return nil, err
	}
	var out []*dnn.NetDef
	for _, v := range newestPerName(vs) {
		def, err := sliceDef(v.NetDef, s.Input, s.Output, fmt.Sprintf("%s-%s", v.Name, s.NewVar))
		if err != nil {
			return nil, fmt.Errorf("%w: slicing %s: %v", ErrQuery, v.Name, err)
		}
		out = append(out, def)
	}
	return out, nil
}

// sliceDef extracts the sub-network of def between the (unique) nodes
// matching the start and end selectors.
func sliceDef(def *dnn.NetDef, startSel, endSel, newName string) (*dnn.NetDef, error) {
	start, err := uniqueMatch(def, startSel)
	if err != nil {
		return nil, err
	}
	end, err := uniqueMatch(def, endSel)
	if err != nil {
		return nil, err
	}
	// Nodes on any start->end path: reachable from start AND co-reachable
	// from end.
	fromStart := reach(def, start, false)
	toEnd := reach(def, end, true)
	keep := map[string]bool{}
	for n := range fromStart {
		if toEnd[n] {
			keep[n] = true
		}
	}
	if !keep[start] || !keep[end] {
		return nil, fmt.Errorf("no path from %q to %q", start, end)
	}
	g, err := def.Graph()
	if err != nil {
		return nil, err
	}
	var inShape dnn.Shape
	for _, nd := range g.Nodes {
		if nd.Spec.Name == start {
			inShape = nd.In
		}
	}
	sliced := &dnn.NetDef{
		Name: newName,
		InC:  inShape.C, InH: inShape.H, InW: inShape.W,
	}
	for _, n := range def.Nodes {
		if keep[n.Name] {
			sliced.Nodes = append(sliced.Nodes, n)
		}
	}
	for _, ed := range def.Edges {
		if keep[ed.From] && keep[ed.To] {
			sliced.Edges = append(sliced.Edges, ed)
		}
	}
	// The label domain of a slice is its final layer's output size when
	// determinable (full layer), otherwise left open.
	if endNode := sliced.Node(end); endNode != nil && endNode.Kind == dnn.KindFull {
		sliced.Labels = endNode.Out
	}
	if err := sliced.Validate(); err != nil {
		return nil, err
	}
	return sliced, nil
}

// uniqueMatch resolves a selector that must match exactly one node.
func uniqueMatch(def *dnn.NetDef, selSrc string) (string, error) {
	sel, err := CompileSelector(selSrc)
	if err != nil {
		return "", err
	}
	var found []string
	for _, n := range def.Nodes {
		if ok, _ := sel.Match(n.Name); ok {
			found = append(found, n.Name)
		}
	}
	if len(found) != 1 {
		return "", fmt.Errorf("selector %q matches %d nodes, want exactly 1", selSrc, len(found))
	}
	return found[0], nil
}

// reach returns the nodes reachable from start (following edges forward, or
// backward when reverse is set), including start itself.
func reach(def *dnn.NetDef, start string, reverse bool) map[string]bool {
	out := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var nbs []string
		if reverse {
			nbs = def.Prev(cur)
		} else {
			nbs = def.Next(cur)
		}
		for _, nb := range nbs {
			if !out[nb] {
				out[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	return out
}

// execConstruct implements Query 3: derive new models from matching ones by
// inserting nodes after selector matches (splitting the outgoing edge) or
// deleting template-matched successors (bypassing them).
func (e *Engine) execConstruct(s *ConstructStmt) ([]*dnn.NetDef, error) {
	vs, err := e.execSelect(s.Where)
	if err != nil {
		return nil, err
	}
	var out []*dnn.NetDef
	for _, v := range newestPerName(vs) {
		def := v.NetDef.Clone()
		def.Name = fmt.Sprintf("%s-%s", v.Name, s.NewVar)
		changed := false
		for _, mut := range s.Mutations {
			n, err := applyMutation(def, mut)
			if err != nil {
				return nil, fmt.Errorf("%w: constructing from %s: %v", ErrQuery, v.Name, err)
			}
			if n > 0 {
				changed = true
			}
		}
		if !changed {
			continue // the paper's construct only yields models it changed
		}
		if err := def.Validate(); err != nil {
			return nil, fmt.Errorf("%w: constructed model invalid: %v", ErrQuery, err)
		}
		out = append(out, def)
	}
	return out, nil
}

// applyMutation applies one insert/delete to def, returning how many sites
// changed.
func applyMutation(def *dnn.NetDef, mut Mutation) (int, error) {
	sel, err := CompileSelector(mut.Selector)
	if err != nil {
		return 0, err
	}
	type site struct {
		name string
		caps map[int]string
	}
	var sites []site
	for _, n := range def.Nodes {
		if ok, caps := sel.Match(n.Name); ok {
			sites = append(sites, site{name: n.Name, caps: caps})
		}
	}
	changed := 0
	for _, st := range sites {
		switch mut.Action {
		case "insert":
			if err := insertAfter(def, st.name, mut.Template, st.caps); err != nil {
				return changed, err
			}
			changed++
		case "delete":
			n, err := deleteSuccessors(def, st.name, mut.Template)
			if err != nil {
				return changed, err
			}
			changed += n
		default:
			return changed, fmt.Errorf("unknown mutation action %q", mut.Action)
		}
	}
	return changed, nil
}

// insertAfter splits the outgoing edge(s) of node `name` with a fresh node
// built from the template. Only non-parametric templates can be inserted
// (parametric layers need hyperparameters DQL templates do not carry).
func insertAfter(def *dnn.NetDef, name string, tmpl NodeTemplate, caps map[int]string) error {
	spec, err := templateToSpec(def, tmpl, caps)
	if err != nil {
		return err
	}
	if def.Node(spec.Name) != nil {
		return fmt.Errorf("inserted node %q already exists", spec.Name)
	}
	def.Nodes = append(def.Nodes, spec)
	next := def.Next(name)
	if len(next) == 0 {
		def.Edges = append(def.Edges, dnn.Edge{From: name, To: spec.Name})
		return nil
	}
	// Splice the new node into the node's output as a whole: on DAG models
	// a node can fan out (e.g. into a skip connection), so all outgoing
	// edges X->Yi become New->Yi behind a single X->New edge.
	var edges []dnn.Edge
	for _, e := range def.Edges {
		if e.From == name {
			edges = append(edges, dnn.Edge{From: spec.Name, To: e.To})
			continue
		}
		edges = append(edges, e)
	}
	edges = append(edges, dnn.Edge{From: name, To: spec.Name})
	def.Edges = edges
	return nil
}

// deleteSuccessors removes template-matching direct successors of `name`,
// reconnecting their own successors to `name` (bypass).
func deleteSuccessors(def *dnn.NetDef, name string, tmpl NodeTemplate) (int, error) {
	removed := 0
	for {
		var victim string
		for _, nb := range def.Next(name) {
			if nodeMatchesTemplate(def.Node(nb), tmpl) {
				victim = nb
				break
			}
		}
		if victim == "" {
			return removed, nil
		}
		after := def.Next(victim)
		var edges []dnn.Edge
		for _, e := range def.Edges {
			if e.To == victim || e.From == victim {
				continue
			}
			edges = append(edges, e)
		}
		for _, a := range after {
			edges = append(edges, dnn.Edge{From: name, To: a})
		}
		def.Edges = edges
		var nodes []dnn.LayerSpec
		for _, n := range def.Nodes {
			if n.Name != victim {
				nodes = append(nodes, n)
			}
		}
		def.Nodes = nodes
		removed++
	}
}

// templateToSpec builds an insertable layer spec. Pool templates use the
// argument as the mode with a generated name; other kinds use the argument
// (after capture substitution) as the node name.
func templateToSpec(def *dnn.NetDef, tmpl NodeTemplate, caps map[int]string) (dnn.LayerSpec, error) {
	switch tmpl.Kind {
	case dnn.KindReLU, dnn.KindSigmoid, dnn.KindTanh, dnn.KindSoftmax:
		name := SubstituteCaptures(tmpl.Arg, caps)
		if name == "" {
			name = freshName(def, tmpl.Kind)
		}
		return dnn.LayerSpec{Name: name, Kind: tmpl.Kind}, nil
	case dnn.KindPool:
		mode := tmpl.Arg
		if mode == "" {
			mode = dnn.PoolMax
		}
		return dnn.LayerSpec{Name: freshName(def, "pool"), Kind: dnn.KindPool, K: 2, Mode: mode}, nil
	default:
		return dnn.LayerSpec{}, fmt.Errorf("cannot insert parametric layer kind %q via a template", tmpl.Kind)
	}
}

func freshName(def *dnn.NetDef, base string) string {
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s_dql%d", base, i)
		if def.Node(name) == nil {
			return name
		}
	}
}
