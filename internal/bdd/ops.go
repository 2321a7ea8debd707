package bdd

// Ite computes if-then-else: f ? g : h. It is the universal binary
// operation from which all two-argument Boolean connectives derive;
// the common connectives (And/Or/Xor) additionally have specialized
// recursions with their own terminal rules and cache op codes, and
// Not is a constant-time complement-bit flip on the handle.
func (m *Manager) Ite(f, g, h Node) Node {
	m.checkOwner()
	m.maybeGrowCache()
	return m.iteRec(f, g, h)
}

func (m *Manager) iteRec(f, g, h Node) Node {
	// Terminal rules. Complemented handles make the classical
	// identities directly detectable: ite(f, f, h) = ite(f, 1, h),
	// ite(f, g, ¬f) = ite(f, g, 1), f ∧ ¬f = 0, and so on.
	if f == True {
		return g
	}
	if f == False {
		return h
	}
	if f == g {
		g = True
	} else if f == g^1 {
		g = False
	}
	if f == h {
		h = False
	} else if f == h^1 {
		h = True
	}
	if g == h {
		return g
	}
	// Route two-operand shapes to the cheaper specialized recursions
	// (which also concentrate cache traffic on fewer, shorter keys).
	switch {
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f ^ 1
	case g == True:
		return m.orRec(f, h)
	case g == False:
		return m.andRec(f^1, h)
	case h == False:
		return m.andRec(f, g)
	case h == True:
		return m.orRec(f^1, g)
	case g == h^1:
		return m.xorRec(f, h)
	}
	// Standard triple (Brace-Rudell-Bryant): make f regular by
	// exchanging the branches — ite(¬f,g,h) = ite(f,h,g) — then make
	// the then-branch regular by complementing the whole call —
	// ite(f,¬g,¬h) = ¬ite(f,g,h) — so all four complement variants of
	// a triple share one cache entry.
	var cmpl Node
	if f&1 != 0 {
		f, g, h = f^1, h, g
	}
	if g&1 != 0 {
		g, h, cmpl = g^1, h^1, 1
	}
	if r, ok := m.cacheLookup(opIte, f, g, h); ok {
		return r ^ cmpl
	}
	// Split on the top variable among f, g, h.
	lvl := m.levelOf(f)
	if l := m.levelOf(g); l < lvl {
		lvl = l
	}
	if l := m.levelOf(h); l < lvl {
		lvl = l
	}
	v := m.invperm[lvl]
	f0, f1 := m.cofactorsAt(f, v)
	g0, g1 := m.cofactorsAt(g, v)
	h0, h1 := m.cofactorsAt(h, v)
	lo := m.iteRec(f0, g0, h0)
	hi := m.iteRec(f1, g1, h1)
	r := m.mk(v, lo, hi)
	m.cacheStore(opIte, f, g, h, r)
	return r ^ cmpl
}

// cofactorsAt returns the two cofactors of n with respect to v when v
// is at or above n's top level; if n does not test v the cofactors are
// n itself. The handle's complement bit distributes into the
// cofactors. (The terminal's label is -1 and never equals a real
// variable, so constants need no special case.)
func (m *Manager) cofactorsAt(n Node, v Var) (lo, hi Node) {
	nd := &m.nodes[n>>1]
	if nd.v == v {
		c := n & 1
		return nd.lo ^ c, nd.hi ^ c
	}
	return n, n
}

// topSplit returns the top variable among f and g (both non-terminal
// at most one may be terminal) and the four cofactors.
func (m *Manager) topSplit(f, g Node) (v Var, f0, f1, g0, g1 Node) {
	lvl := m.levelOf(f)
	if l := m.levelOf(g); l < lvl {
		lvl = l
	}
	v = m.invperm[lvl]
	f0, f1 = m.cofactorsAt(f, v)
	g0, g1 = m.cofactorsAt(g, v)
	return
}

// andRec is the specialized conjunction recursion. Operands are
// normalised by handle order (AND commutes), doubling cache coverage;
// complemented handles add the f ∧ ¬f = 0 short-circuit.
func (m *Manager) andRec(f, g Node) Node {
	switch {
	case f == g:
		return f
	case f == g^1: // f ∧ ¬f
		return False
	case f == False || g == False:
		return False
	case f == True:
		return g
	case g == True:
		return f
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opAnd, f, g, 0); ok {
		return r
	}
	v, f0, f1, g0, g1 := m.topSplit(f, g)
	r := m.mk(v, m.andRec(f0, g0), m.andRec(f1, g1))
	m.cacheStore(opAnd, f, g, 0, r)
	return r
}

// orRec dualises through De Morgan: with free complements, OR shares
// the AND recursion — and, more importantly, its cache entries — so
// the former opOr traffic lands on opAnd keys.
func (m *Manager) orRec(f, g Node) Node {
	return m.andRec(f^1, g^1) ^ 1
}

// xorRec is the specialized exclusive-or recursion. XOR commutes with
// complement on either operand (¬f ⊕ g = ¬(f ⊕ g)), so both operands
// are stripped to regular handles before the cache is consulted and
// the parity of the stripped bits complements the result: all four
// polarity variants of a pair share one cache entry and one result
// diagram.
func (m *Manager) xorRec(f, g Node) Node {
	switch {
	case f == g:
		return False
	case f == g^1:
		return True
	case f == False:
		return g
	case f == True:
		return g ^ 1
	case g == False:
		return f
	case g == True:
		return f ^ 1
	}
	cmpl := (f ^ g) & 1
	f &^= 1
	g &^= 1
	if f > g {
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opXor, f, g, 0); ok {
		return r ^ cmpl
	}
	v, f0, f1, g0, g1 := m.topSplit(f, g)
	r := m.mk(v, m.xorRec(f0, g0), m.xorRec(f1, g1))
	m.cacheStore(opXor, f, g, 0, r)
	return r ^ cmpl
}

// Not returns the complement of f. With complement edges this is a
// constant-time flip of the handle's complement bit: no node is
// created, no recursion runs, no cache is consulted.
func (m *Manager) Not(f Node) Node {
	m.checkOwner()
	return f ^ 1
}

// And returns the conjunction of its arguments (True for none).
func (m *Manager) And(fs ...Node) Node {
	m.checkOwner()
	m.maybeGrowCache()
	r := True
	for _, f := range fs {
		r = m.andRec(r, f)
		if r == False {
			break
		}
	}
	return r
}

// Or returns the disjunction of its arguments (False for none).
func (m *Manager) Or(fs ...Node) Node {
	m.checkOwner()
	m.maybeGrowCache()
	r := False
	for _, f := range fs {
		r = m.orRec(r, f)
		if r == True {
			break
		}
	}
	return r
}

// Intersects reports whether the conjunction of f and g is
// satisfiable, without materialising it: the recursion short-circuits
// on the first satisfying path and never calls mk, so no nodes are
// created (CUDD's Cudd_bddLeq idiom, f <= !g negated). Reduction's
// per-edge feasibility checks use it so that probing every outcome of
// every TEST vertex cannot blow up the context manager. Results are
// memoised in the shared operation cache with True/False as the
// stored value.
func (m *Manager) Intersects(f, g Node) bool {
	m.checkOwner()
	m.maybeGrowCache()
	return m.intersectsRec(f, g)
}

func (m *Manager) intersectsRec(f, g Node) bool {
	switch {
	case f == False || g == False:
		return false
	case f == g^1: // f ∧ ¬f
		return false
	case f == g || f == True || g == True:
		// The other operand is known non-False here.
		return true
	}
	if f > g { // commutes; normalise like andRec
		f, g = g, f
	}
	if r, ok := m.cacheLookup(opIntersect, f, g, 0); ok {
		return r == True
	}
	_, f0, f1, g0, g1 := m.topSplit(f, g)
	sat := m.intersectsRec(f0, g0) || m.intersectsRec(f1, g1)
	res := False
	if sat {
		res = True
	}
	m.cacheStore(opIntersect, f, g, 0, res)
	return sat
}

// Xor returns the exclusive or of f and g.
func (m *Manager) Xor(f, g Node) Node {
	m.checkOwner()
	m.maybeGrowCache()
	return m.xorRec(f, g)
}

// Xnor returns the equivalence (biconditional) of f and g — the
// complement bit makes it exactly one flip away from Xor.
func (m *Manager) Xnor(f, g Node) Node {
	m.checkOwner()
	m.maybeGrowCache()
	return m.xorRec(f, g) ^ 1
}

// Implies returns f -> g.
func (m *Manager) Implies(f, g Node) Node { return m.Ite(f, g, True) }

// Cofactor returns the restriction of f with v replaced by the given
// constant value (Shannon cofactor). Sub-results are memoised in the
// shared operation cache keyed on a packed variable/phase literal and
// the regular handle — cofactoring commutes with complement, so both
// polarities of f share one entry — and persist across calls instead
// of living in per-call scratch maps.
func (m *Manager) Cofactor(f Node, v Var, val bool) Node {
	m.checkOwner()
	m.maybeGrowCache()
	lit := Node(int32(v) << 1)
	if val {
		lit++
	}
	return m.cofRec(f, v, m.perm[v], lit)
}

func (m *Manager) cofRec(f Node, v Var, lvl int, lit Node) Node {
	if f.IsConst() || m.levelOf(f) > lvl {
		return f
	}
	c := f & 1
	nd := &m.nodes[f>>1]
	if nd.v == v {
		if lit&1 != 0 {
			return nd.hi ^ c
		}
		return nd.lo ^ c
	}
	fr := f ^ c
	if r, ok := m.cacheLookup(opCofactor, fr, lit, 0); ok {
		return r ^ c
	}
	r := m.mk(nd.v, m.cofRec(nd.lo, v, lvl, lit), m.cofRec(nd.hi, v, lvl, lit))
	m.cacheStore(opCofactor, fr, lit, 0, r)
	return r ^ c
}

// varsCube builds the positive-literal cube of the given variables in
// the current order — the canonical operation-cache key for
// quantification. Duplicate variables collapse.
func (m *Manager) varsCube(vars []Var) Node {
	vs := append(make([]Var, 0, len(vars)), vars...)
	m.sortVarsByLevelDesc(vs)
	c := True
	for i, v := range vs {
		if i > 0 && v == vs[i-1] {
			continue
		}
		c = m.mk(v, False, c)
	}
	return c
}

// Exists existentially quantifies (smooths) the given variables out of
// f: the result is true wherever some assignment to vars makes f true.
// The quantified set is represented as a positive-literal cube so that
// sub-results cache in the shared operation cache across calls.
// Quantification does not commute with complement (∃x.¬f ≠ ¬∃x.f), so
// the cache keys on the full handle including its complement bit.
func (m *Manager) Exists(f Node, vars ...Var) Node {
	m.checkOwner()
	if len(vars) == 0 {
		return f
	}
	m.maybeGrowCache()
	return m.existsRec(f, m.varsCube(vars))
}

// cubeRest returns the remainder of a positive-literal cube below its
// top variable, resolving the handle's complement bit.
func (m *Manager) cubeRest(cube Node) Node {
	return m.nodes[cube>>1].hi ^ (cube & 1)
}

func (m *Manager) existsRec(f, cube Node) Node {
	if f.IsConst() || cube == True {
		return f
	}
	// Skip cube variables above f's top level: f cannot depend on
	// them, so quantifying them is the identity.
	flvl := m.levelOf(f)
	for cube != True && m.perm[m.nodes[cube>>1].v] < flvl {
		cube = m.cubeRest(cube)
	}
	if cube == True {
		return f
	}
	if r, ok := m.cacheLookup(opExists, f, cube, 0); ok {
		return r
	}
	c := f & 1
	nd := &m.nodes[f>>1]
	var r Node
	if nd.v == m.nodes[cube>>1].v {
		rest := m.cubeRest(cube)
		lo := m.existsRec(nd.lo^c, rest)
		if lo == True { // OR short-circuit
			r = True
		} else {
			r = m.orRec(lo, m.existsRec(nd.hi^c, rest))
		}
	} else {
		r = m.mk(nd.v, m.existsRec(nd.lo^c, cube), m.existsRec(nd.hi^c, cube))
	}
	m.cacheStore(opExists, f, cube, 0, r)
	return r
}

// Cube builds the conjunction of literals given by parallel slices of
// variables and phase values.
func (m *Manager) Cube(vars []Var, vals []bool) Node {
	m.checkOwner()
	r := True
	// Build bottom-up in order of decreasing level for linear cost.
	idx := make([]int, len(vars))
	for i := range idx {
		idx[i] = i
	}
	// Simple insertion by level; cubes are short.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && m.perm[vars[idx[j]]] > m.perm[vars[idx[j-1]]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for _, i := range idx {
		if vals[i] {
			r = m.mk(vars[i], False, r)
		} else {
			r = m.mk(vars[i], r, False)
		}
	}
	return r
}
