package core

import (
	"fmt"
	"slices"

	"github.com/ormkit/incmap/internal/compiler"
	"github.com/ormkit/incmap/internal/cond"
	"github.com/ormkit/incmap/internal/cqt"
	"github.com/ormkit/incmap/internal/edm"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/rel"
)

// AddEntity creates a new entity type as a leaf of an existing hierarchy
// and maps it to a table. It is the carefully-crafted SMO of §3.1 of the
// paper, AddEntity(E, E', α, P, T, f), generalized with a store-side
// condition so the Table-per-Hierarchy variant of §3.4 is the same
// operation with a discriminator equality:
//
//   - TPT: α = non-inherited attributes ∪ key, P = parent, T fresh.
//   - TPC: α = all attributes, P = NIL, T fresh.
//   - TPH: α = all attributes, P = NIL, T shared, χ: disc = value.
//
// Use the AddEntityTPT/TPC/TPH constructors for the common strategies.
type AddEntity struct {
	// Name is E, the new entity type; Parent is E', its base type.
	Name   string
	Parent string
	// DeclAttrs are the attributes E declares beyond those it inherits.
	DeclAttrs []edm.Attribute
	// Alpha is α: the attributes mapped to Table, including the key.
	Alpha []string
	// P is the ancestor whose mapping covers att(E) ∖ α; "" means NIL.
	P string
	// Table is T and ColOf is f, the 1-1 attribute-to-column renaming.
	Table string
	ColOf map[string]string
	// StoreCond is χ on T's rows; True{} except for TPH, where it is the
	// discriminator equality.
	StoreCond cond.Expr
}

// AddEntityTPT returns the Table-per-Type form of AddEntity: the new
// type's own attributes and key go to a fresh table, the rest is mapped
// like the parent.
func AddEntityTPT(name, parent string, attrs []edm.Attribute, table string, colOf map[string]string) *AddEntity {
	return &AddEntity{
		Name: name, Parent: parent, DeclAttrs: attrs,
		P: parent, Table: table, ColOf: colOf, StoreCond: cond.True{},
	}
}

// AddEntityTPC returns the Table-per-Concrete-type form of AddEntity: all
// attributes (inherited and declared) go to a fresh table.
func AddEntityTPC(name, parent string, attrs []edm.Attribute, table string, colOf map[string]string) *AddEntity {
	return &AddEntity{
		Name: name, Parent: parent, DeclAttrs: attrs,
		P: "", Table: table, ColOf: colOf, StoreCond: cond.True{},
	}
}

// AddEntityTPH returns the Table-per-Hierarchy form of AddEntity: all
// attributes go to the hierarchy's shared table, with a discriminator
// column identifying the type of each row.
func AddEntityTPH(name, parent string, attrs []edm.Attribute, table, discCol string, discVal cond.Value, colOf map[string]string) *AddEntity {
	return &AddEntity{
		Name: name, Parent: parent, DeclAttrs: attrs,
		P: "", Table: table, ColOf: colOf,
		StoreCond: cond.Cmp{Attr: discCol, Op: cond.OpEq, Val: discVal},
	}
}

// Describe implements SMO.
func (op *AddEntity) Describe() string {
	return fmt.Sprintf("AddEntity(%s < %s → %s)", op.Name, op.Parent, op.Table)
}

func (op *AddEntity) sharedTable() bool {
	_, isTrue := op.StoreCond.(cond.True)
	return !isTrue
}

func (op *AddEntity) apply(ic *Incremental, m *frag.Mapping, v *frag.Views) error {
	// --- Schema change -------------------------------------------------
	parent := m.Client.Type(op.Parent)
	if parent == nil {
		return fmt.Errorf("unknown parent type %q", op.Parent)
	}
	if err := m.Client.AddType(edm.EntityType{Name: op.Name, Base: op.Parent, Attrs: op.DeclAttrs}); err != nil {
		return err
	}
	set := m.Client.SetFor(op.Name)
	if set == nil {
		return fmt.Errorf("parent hierarchy of %q has no entity set", op.Parent)
	}

	alpha := op.Alpha
	if alpha == nil {
		// Derive α from the strategy: TPT maps key + declared attributes,
		// TPC/TPH map everything.
		if op.P == op.Parent && op.P != "" {
			alpha = append([]string(nil), m.Client.KeyOf(op.Name)...)
			for _, a := range op.DeclAttrs {
				alpha = append(alpha, a.Name)
			}
		} else {
			// The new fragment owns α; AttrNames serves a slice shared
			// with the schema.
			alpha = slices.Clone(m.Client.AttrNames(op.Name))
		}
	}

	// --- Side conditions of the SMO (§3.1) ------------------------------
	if op.P != "" && !m.Client.IsSubtype(op.Name, op.P) {
		return fmt.Errorf("P = %q is not an ancestor of %q", op.P, op.Name)
	}
	if err := op.checkCoverage(m, alpha); err != nil {
		return err
	}
	tab := m.Store.Table(op.Table)
	if tab == nil {
		return fmt.Errorf("unknown table %q", op.Table)
	}
	if !op.sharedTable() && len(m.FragsOnTable(op.Table)) > 0 {
		return fmt.Errorf("table %q is already mentioned in a mapping fragment", op.Table)
	}
	if err := op.checkColumnMapping(m, tab, alpha); err != nil {
		return err
	}

	// --- Fragment adaptation (§3.1.3) ------------------------------------
	pset := betweenTypes(m, op.Name, op.P)
	ic.adaptFragments(m, set.Name, op.Name, op.P, pset)
	phiE := &frag.Fragment{
		ID:         "f_" + op.Name + "_" + op.Table,
		Set:        set.Name,
		ClientCond: cond.TypeIs{Type: op.Name},
		Attrs:      alpha,
		Table:      op.Table,
		StoreCond:  op.StoreCond,
		ColOf:      op.ColOf,
	}
	m.Frags = append(m.Frags, phiE)
	if err := m.CheckFragment(phiE); err != nil {
		return err
	}

	// --- Update views (Algorithm 2) --------------------------------------
	contribution := op.updateContribution(m, set.Name, tab, alpha)
	if op.sharedTable() {
		old := v.Update[op.Table]
		hasAssoc := false
		for _, g := range m.FragsOnTable(op.Table) {
			if g.Assoc != "" {
				hasAssoc = true
				break
			}
		}
		switch {
		case old == nil:
			v.SetUpdate(op.Table, &cqt.View{Q: contribution})
		case hasAssoc:
			// Association fragments are left-outer-joined onto the entity
			// part *inside* the view, so unioning the new type's branch on
			// top would leave its rows without the association columns.
			// Regenerate this one table's view from the adapted fragments
			// (the incremental scope), as AddProperty does.
			uv, err := compiler.New().UpdateView(m, op.Table)
			if err != nil {
				return err
			}
			v.SetUpdate(op.Table, uv)
		default:
			adapted := cqt.MapConds(old.Q, func(c cond.Expr) cond.Expr {
				return adaptClientCond(m, c, op.Name, op.P, pset)
			})
			// The directive may have widened the shared table (new columns
			// for the new type's attributes), so the pre-existing branch —
			// compiled against the narrower table — must be padded to the
			// common column set before the union, as for query views.
			oldBranch, newBranch, err := unionAlign(m, set.Name, adapted, contribution)
			if err != nil {
				return err
			}
			v.SetUpdate(op.Table, &cqt.View{Q: cqt.UnionAll{Inputs: []cqt.Expr{oldBranch, newBranch}}})
		}
	} else {
		v.SetUpdate(op.Table, &cqt.View{Q: contribution})
	}
	ic.Stats.BuiltViews++
	ic.markUpdate(op.Table)
	ic.adaptUpdateViews(m, v, op.Table, op.Name, op.P, pset)

	// --- Incremental validation (§3.1.4) ---------------------------------
	if err := op.validate(ic, m, v, tab, alpha, pset); err != nil {
		return err
	}

	// --- Query views (Algorithm 1) ---------------------------------------
	return op.evolveQueryViews(ic, m, v, set, alpha, pset)
}

// checkCoverage verifies att(E) = α ∪ att(P).
func (op *AddEntity) checkCoverage(m *frag.Mapping, alpha []string) error {
	inAlpha := map[string]bool{}
	for _, a := range alpha {
		inAlpha[a] = true
	}
	key := m.Client.KeyOf(op.Name)
	for _, k := range key {
		if !inAlpha[k] {
			return fmt.Errorf("α must contain key attribute %q", k)
		}
	}
	for _, a := range m.Client.AttrNames(op.Name) {
		if inAlpha[a] {
			continue
		}
		if op.P != "" && m.Client.HasAttr(op.P, a) {
			continue
		}
		return fmt.Errorf("attribute %q of %q is covered by neither α nor att(P)", a, op.Name)
	}
	return nil
}

// checkColumnMapping verifies f is 1-1 onto existing columns, maps the key
// onto the table key, respects domains, and leaves only nullable columns
// unmapped (for fresh tables).
func (op *AddEntity) checkColumnMapping(m *frag.Mapping, tab *rel.Table, alpha []string) error {
	used := map[string]bool{}
	for _, a := range alpha {
		col, ok := op.ColOf[a]
		if !ok {
			return fmt.Errorf("α attribute %q has no column mapping", a)
		}
		tc, ok := tab.Col(col)
		if !ok {
			return fmt.Errorf("column %q not in table %q", col, op.Table)
		}
		if used[col] {
			return fmt.Errorf("column %q mapped twice", col)
		}
		used[col] = true
		attr, ok := m.Client.Attr(op.Name, a)
		if !ok {
			return fmt.Errorf("unknown attribute %q", a)
		}
		if attr.Type != tc.Type {
			return fmt.Errorf("dom(%s) ⊄ dom(%s): kind %v vs %v", a, col, attr.Type, tc.Type)
		}
	}
	key := m.Client.KeyOf(op.Name)
	if len(key) != len(tab.Key) {
		return fmt.Errorf("key arity mismatch between %q and table %q", op.Name, op.Table)
	}
	for i, k := range key {
		if op.ColOf[k] != tab.Key[i] {
			return fmt.Errorf("f must map key attribute %q to key column %q", k, tab.Key[i])
		}
	}
	if !op.sharedTable() {
		consts := map[string]cond.Value{}
		collectStoreEqualities(op.StoreCond, consts)
		for _, tc := range tab.Cols {
			if tc.Nullable || used[tc.Name] || tab.IsKey(tc.Name) {
				continue
			}
			if _, fixed := consts[tc.Name]; fixed {
				continue
			}
			return fmt.Errorf("unmapped column %q of %q must be nullable", tc.Name, op.Table)
		}
	}
	return nil
}

// updateContribution builds π_{α AS f(α)} pad att(T) (σ_{IS OF E}(E-set)),
// line 2 of Algorithm 2, with store-condition constants (the TPH
// discriminator) projected as literals.
func (op *AddEntity) updateContribution(m *frag.Mapping, setName string, tab *rel.Table, alpha []string) cqt.Expr {
	colFor := map[string]string{}
	for _, a := range alpha {
		colFor[op.ColOf[a]] = a
	}
	consts := map[string]cond.Value{}
	collectStoreEqualities(op.StoreCond, consts)
	cols := make([]cqt.ProjCol, 0, len(tab.Cols))
	for _, tc := range tab.Cols {
		switch {
		case colFor[tc.Name] != "":
			cols = append(cols, cqt.ColAs(colFor[tc.Name], tc.Name))
		default:
			if val, ok := consts[tc.Name]; ok {
				cols = append(cols, cqt.LitAs(cqt.Const(val), tc.Name))
			} else {
				cols = append(cols, cqt.LitAs(cqt.NullOf(tc.Type), tc.Name))
			}
		}
	}
	return cqt.Project{
		In:   cqt.Select{In: cqt.ScanSet{Set: setName}, Cond: cond.TypeIs{Type: op.Name}},
		Cols: cols,
	}
}

// validate runs the localized checks of §3.1.4 plus the TPH discriminator
// check of §3.4.
func (op *AddEntity) validate(ic *Incremental, m *frag.Mapping, v *frag.Views, tab *rel.Table, alpha []string, pset []string) error {
	if ic.Opts.SkipValidation {
		// Pipeline fallback: the evolved mapping is re-validated by a full
		// compilation, which subsumes every check below.
		return nil
	}
	ch := ic.checker(m)
	defer ic.absorb(ch)

	// TPH: the new discriminator region must be disjoint from every other
	// entity fragment already on the table.
	if op.sharedTable() {
		th := m.Store.TheoryFor(op.Table)
		for _, g := range m.FragsOnTable(op.Table) {
			if g.Assoc != "" || g.ClientCond.String() == (cond.TypeIs{Type: op.Name}).String() {
				continue
			}
			if !ic.disjoint(th, g.StoreCond, op.StoreCond) {
				return fmt.Errorf("validation failed: discriminator region of %s overlaps fragment %s", op.Name, g.ID)
			}
		}
	}

	// Checks 1-2: associations with an endpoint strictly between E and P.
	for _, f := range pset {
		for _, a := range m.Client.Associations() {
			g := m.FragForAssoc(a.Name)
			if g == nil {
				continue
			}
			ends := assocEndsOfType(m, a, f)
			for _, endCols := range ends {
				// Check 1: the association's F-end keys can still be
				// stored in its table now that E-instances may occur.
				beta := make([]string, len(endCols))
				lcols := make([]cqt.ProjCol, len(endCols))
				for i, ec := range endCols {
					beta[i] = g.ColOf[ec]
					lcols[i] = cqt.ColAs(ec, beta[i])
				}
				lhs := cqt.Project{In: cqt.ScanAssoc{Assoc: a.Name}, Cols: lcols}
				if err := ic.containsInView(ch, v, lhs, g.Table, beta,
					fmt.Sprintf("association %s can no longer store keys of new type %s (check 1)", a.Name, op.Name)); err != nil {
					return err
				}
				// Check 2: foreign keys of the association's table that
				// overlap β.
				rtab := m.Store.Table(g.Table)
				for _, fk := range rtab.FKs {
					if !overlap(fk.Cols, beta) {
						continue
					}
					if err := ic.fkCheck(ch, m, v, g.Table, fk); err != nil {
						return err
					}
				}
			}
		}
	}

	// Check 3: foreign keys of T that overlap f(α).
	falpha := make([]string, len(alpha))
	for i, a := range alpha {
		falpha[i] = op.ColOf[a]
	}
	for _, fk := range tab.FKs {
		if !overlap(fk.Cols, falpha) {
			continue
		}
		if err := ic.fkCheck(ch, m, v, op.Table, fk); err != nil {
			return err
		}
	}

	if ic.Opts.WideValidation {
		return ic.wideFKRecheck(ch, m, v)
	}
	return nil
}

// evolveQueryViews implements Algorithm 1.
func (op *AddEntity) evolveQueryViews(ic *Incremental, m *frag.Mapping, v *frag.Views, set *edm.EntitySet, alpha []string, pset []string) error {
	cat := m.Catalog()
	key := m.Client.KeyOf(op.Name)
	flag := typeFlagCol(op.Name)

	tPart := func(withFlag bool) cqt.Expr {
		cols := make([]cqt.ProjCol, 0, len(alpha)+1)
		for _, a := range alpha {
			cols = append(cols, cqt.ColAs(op.ColOf[a], a))
		}
		if withFlag {
			cols = append(cols, cqt.LitAs(cqt.Const(cond.Bool(true)), flag))
		}
		return cqt.Project{
			In:   cqt.Select{In: cqt.ScanTable{Table: op.Table}, Cond: op.StoreCond},
			Cols: cols,
		}
	}
	keyOn := make([][2]string, 0, len(key))
	for _, k := range key {
		keyOn = append(keyOn, [2]string{k, k})
	}

	// Lines 3-10: Q_E and Q_aux.
	tauE := cqt.Case{When: cond.True{}, Type: op.Name, Attrs: attrIdentity(m, op.Name)}
	var qE, qAux cqt.Expr
	if op.P == "" {
		qE = tPart(false)
		qAux = tPart(true)
	} else {
		qp := v.Query[op.P]
		if qp == nil {
			return fmt.Errorf("no query view for ancestor %q", op.P)
		}
		base, err := projectAway(cat, qp.Q, nonKey(alpha, key))
		if err != nil {
			return err
		}
		qE = cqt.Join{Kind: cqt.Inner, L: base, R: tPart(false), On: keyOn}
		qAux = cqt.Join{Kind: cqt.Inner, L: base, R: tPart(true), On: keyOn}
	}
	v.SetQuery(op.Name, &cqt.View{Q: qE, Cases: []cqt.Case{tauE}})
	ic.Stats.BuiltViews++
	ic.markQuery(op.Name)

	return ic.evolveAncestorViews(m, v, set.Name, op.Name, op.P, pset, qAux, flag)
}

// evolveAncestorViews implements lines 11-23 of Algorithm 1, shared by
// AddEntity and AddEntityPart: the views of P and its ancestors gain a
// left outer join with the new type's (flagged) source, and the views of
// the types strictly between E and P gain a union branch. In both cases
// the constructor gains a leading flag case for the new type.
func (ic *Incremental) evolveAncestorViews(m *frag.Mapping, v *frag.Views, setName, newType, p string, pset []string, qAux cqt.Expr, flag string) error {
	cat := m.Catalog()
	key := m.Client.KeyOf(newType)
	attrs := m.Client.AttrNames(newType)
	keyOn := make([][2]string, 0, len(key))
	for _, k := range key {
		keyOn = append(keyOn, [2]string{k, k})
	}
	inKey := map[string]bool{}
	for _, k := range key {
		inKey[k] = true
	}

	// Ancestors of P extend with a left outer join. Attributes of the new
	// type whose names already occur in the ancestor view (α re-mapping an
	// inherited attribute, as the general AddEntity form allows) must not
	// merge with the ancestor's columns — the ancestor side is NULL for the
	// new type's rows — so the new source's copies are renamed and the new
	// constructor case reads the renamed columns.
	for _, f := range ancestorsOfP(m, p) {
		qf := v.MutableQuery(f)
		if qf == nil {
			continue
		}
		oldCols, err := cat.Cols(qf.Q)
		if err != nil {
			return err
		}
		old := map[string]bool{}
		for _, c := range oldCols {
			old[c] = true
		}
		auxCols, err := cat.Cols(qAux)
		if err != nil {
			return err
		}
		inAux := map[string]bool{}
		for _, c := range auxCols {
			inAux[c] = true
		}
		attrMap := map[string]string{}
		proj := make([]cqt.ProjCol, 0, len(attrs)+1)
		for _, k := range key {
			proj = append(proj, cqt.Col(k))
			attrMap[k] = k
		}
		for _, a := range attrs {
			if inKey[a] || !inAux[a] {
				continue
			}
			if old[a] {
				renamed := "__r_" + newType + "_" + a
				proj = append(proj, cqt.ColAs(a, renamed))
				attrMap[a] = renamed
			} else {
				proj = append(proj, cqt.Col(a))
				attrMap[a] = a
			}
		}
		proj = append(proj, cqt.Col(flag))
		rPart := cqt.Expr(cqt.Project{In: qAux, Cols: proj})
		qf.Q = cqt.Join{Kind: cqt.LeftOuter, L: qf.Q, R: rPart, On: keyOn}
		qf.Cases = append([]cqt.Case{{
			When:  cond.Cmp{Attr: flag, Op: cond.OpEq, Val: cond.Bool(true)},
			Type:  newType,
			Attrs: attrMap,
		}}, qf.Cases...)
		ic.Stats.AdaptedViews++
		ic.markQuery(f)
	}

	// Types strictly between E and P extend with a union; rows come from
	// exactly one branch, so plain attribute names stay correct.
	flagCase := cqt.Case{
		When:  cond.Cmp{Attr: flag, Op: cond.OpEq, Val: cond.Bool(true)},
		Type:  newType,
		Attrs: attrIdentity(m, newType),
	}
	for _, f := range pset {
		qf := v.MutableQuery(f)
		if qf == nil {
			continue
		}
		a, b, err := unionAlign(m, setName, qf.Q, qAux)
		if err != nil {
			return err
		}
		qf.Q = cqt.UnionAll{Inputs: []cqt.Expr{a, b}}
		qf.Cases = append([]cqt.Case{flagCase}, qf.Cases...)
		ic.Stats.AdaptedViews++
		ic.markQuery(f)
	}
	return nil
}

// --- small helpers shared by the SMO implementations ---------------------

func attrIdentity(m *frag.Mapping, ty string) map[string]string {
	out := map[string]string{}
	for _, a := range m.Client.AttrNames(ty) {
		out[a] = a
	}
	return out
}

func nonKey(alpha, key []string) []string {
	inKey := map[string]bool{}
	for _, k := range key {
		inKey[k] = true
	}
	var out []string
	for _, a := range alpha {
		if !inKey[a] {
			out = append(out, a)
		}
	}
	return out
}

func diff(a, b []string) []string {
	inB := map[string]bool{}
	for _, x := range b {
		inB[x] = true
	}
	var out []string
	for _, x := range a {
		if !inB[x] {
			out = append(out, x)
		}
	}
	return out
}

func overlap(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if set[x] {
			return true
		}
	}
	return false
}

// projectAway removes the named columns from a query's output.
func projectAway(cat *cqt.Catalog, q cqt.Expr, drop []string) (cqt.Expr, error) {
	cols, err := cat.Cols(q)
	if err != nil {
		return nil, err
	}
	dropSet := map[string]bool{}
	for _, d := range drop {
		dropSet[d] = true
	}
	var keep []cqt.ProjCol
	changed := false
	for _, c := range cols {
		if dropSet[c] {
			changed = true
			continue
		}
		keep = append(keep, cqt.Col(c))
	}
	if !changed {
		return q, nil
	}
	return cqt.Project{In: q, Cols: keep}, nil
}

// projectKeep restricts a query's output to the named columns plus a flag.
func projectKeep(cat *cqt.Catalog, q cqt.Expr, keep []string, flag string) (cqt.Expr, error) {
	cols, err := cat.Cols(q)
	if err != nil {
		return nil, err
	}
	has := map[string]bool{}
	for _, c := range cols {
		has[c] = true
	}
	seen := map[string]bool{}
	var out []cqt.ProjCol
	for _, k := range keep {
		if has[k] && !seen[k] {
			seen[k] = true
			out = append(out, cqt.Col(k))
		}
	}
	if has[flag] && !seen[flag] {
		out = append(out, cqt.Col(flag))
	}
	return cqt.Project{In: q, Cols: out}, nil
}

// assocEndsOfType returns the association-scan column lists of the ends
// whose type is exactly ty.
func assocEndsOfType(m *frag.Mapping, a *edm.Association, ty string) [][]string {
	e1, e2 := cqt.AssocEndCols(m.Client, a)
	var out [][]string
	if a.End1.Type == ty {
		out = append(out, e1)
	}
	if a.End2.Type == ty {
		out = append(out, e2)
	}
	return out
}

func collectStoreEqualities(e cond.Expr, out map[string]cond.Value) {
	switch v := e.(type) {
	case cond.Cmp:
		if v.Op == cond.OpEq {
			out[v.Attr] = v.Val
		}
	case *cond.And:
		for _, x := range v.Xs {
			collectStoreEqualities(x, out)
		}
	}
}
