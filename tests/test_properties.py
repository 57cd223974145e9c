"""Randomized invariant checks over Prufer-sampled labeled trees."""

import hypothesis.strategies as st
from hypothesis import given, settings

from freetrees import canonical_form
from strees import (
    CoalescencePlan,
    PruferCode,
    Tree,
    VertexVector,
    classify,
    column_space_vectors,
    in_column_space,
    decompose,
    independence_number,
    internal_support,
    matching_number,
    parse_tree,
    prufer_decode,
    random_s_tree,
    s_coalescence,
    split_at_support,
    stellare_bases,
    stellare_invariants,
    support_core,
    tree_from_json,
    tree_kernel,
    tree_null_basis,
    tree_range_basis,
    tree_rank,
    tree_to_edge_text,
    tree_to_json,
)
from strees.bases import atom_range_basis, forest_basis
from strees.decomposition import Classification, atom_set, bouquet
from strees.errors import SpanMismatch
from strees.exact import (
    in_column_space_by_witness,
    peel_independent,
    rank_of_vectors,
)
from strees.matching import deficient_set
from test_exact import fraction_rank


@st.composite
def labeled_trees(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n <= 2:
        return prufer_decode(PruferCode(n, ()))
    seq = tuple(
        draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n - 2)
    )
    return prufer_decode(PruferCode(n, seq))


@given(t=labeled_trees())
@settings(max_examples=80, deadline=None)
def test_rank_identities(t):
    r = tree_rank(t)
    nu = matching_number(t)
    assert r == 2 * nu
    assert independence_number(t) + nu == t.order
    assert len(tree_kernel(t)) == t.order - r


@given(t=labeled_trees())
@settings(max_examples=80, deadline=None)
def test_support_structure(t):
    sc = support_core(t)
    assert len(tree_kernel(t)) == sc.support_size - sc.core_size
    for u, v in t.edges():
        assert not (u in sc.support and v in sc.support)
    for c in sc.core:
        assert sum(1 for w in t.neighbors(c) if w in sc.support) >= 2


@st.composite
def relabeled_trees(draw, max_n=80):
    """Random labeled trees moved onto random distinct labels."""
    t = draw(labeled_trees(max_n))
    labels = draw(
        st.lists(st.integers(0, 4 * t.order), min_size=t.order, max_size=t.order, unique=True)
    )
    name = dict(zip(t.vertices, labels))
    return Tree([(name[u], name[v]) for u, v in t.edges()], vertices=labels)


@given(t=relabeled_trees())
@settings(max_examples=150, deadline=None)
def test_matching_route_matches_elimination(t):
    # support, core, nu and classify come from a maximum matching; the
    # same quantities read off the eliminated kernel must agree
    kern = tree_kernel(t)
    supp = {v for x in kern for v in x.entries}
    core = {w for v in supp for w in t.adj[v]} - supp
    sc = support_core(t)
    assert sc.support == tuple(sorted(supp))
    assert sc.core == tuple(sorted(core))
    nu = deficient_set(t)[1]
    assert 2 * nu == t.order - len(kern)
    assert nu == matching_number(t)
    is_s = len(supp | core) == t.order
    is_atom = is_s and not any(u in core and w in core for u, w in t.edges())
    mcd = max((t.degree(v) for v in core), default=0)
    assert classify(t) == Classification(
        is_support_tree=is_s,
        is_nonsingular_tree=not kern,
        is_atom=is_atom,
        is_basic=is_atom and t.order > 1 and mcd == 2,
        max_core_degree=mcd,
    )


@given(t=labeled_trees())
@settings(max_examples=80, deadline=None)
def test_decomposition_covers_tree(t):
    dec = decompose(t)
    seen = sorted(
        v for part in dec.support_parts + dec.nonsingular_parts for v in part.vertices
    )
    assert seen == list(t.vertices)
    for part in dec.nonsingular_parts:
        assert part.order % 2 == 0


@given(t=labeled_trees(max_n=28))
@settings(max_examples=60, deadline=None)
def test_null_basis_gates(t):
    basis = tree_null_basis(t)  # raises on any internal gate failure
    kern = tree_kernel(t)
    assert len(basis) == len(kern)
    sc = support_core(t)
    for x in basis:
        assert set(x.support()) <= set(sc.support)
        assert all(c in (-1, 1) for c in x.entries.values())


@given(t=labeled_trees(max_n=28))
@settings(max_examples=60, deadline=None)
def test_range_basis_gates(t):
    basis = tree_range_basis(t)
    assert len(basis.vectors) == tree_rank(t)
    assert len(basis.roles) == len(basis.vectors)


@given(t=labeled_trees(max_n=20), data=st.data())
@settings(max_examples=80, deadline=None)
def test_column_space_membership_matches_elimination(t, data):
    entries = data.draw(
        st.dictionaries(st.sampled_from(t.vertices), st.integers(-2, 2), max_size=4)
    )
    v = VertexVector(t.vertices, entries)
    cols = list(column_space_vectors(t))
    expect = rank_of_vectors(cols + [v]) == rank_of_vectors(cols)
    assert in_column_space(t, [v]) == expect


@given(t=labeled_trees())
@settings(max_examples=60, deadline=None)
def test_serialization_round_trips(t):
    again = parse_tree(tree_to_edge_text(t))
    assert again.vertices == t.vertices
    assert again.edges() == t.edges()
    again = tree_from_json(tree_to_json(t))
    assert again.vertices == t.vertices
    assert again.edges() == t.edges()


@given(t=labeled_trees(max_n=8), ks_seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_stellare_invariants_hold(t, ks_seed):
    import random

    rng = random.Random(ks_seed)
    ks = [rng.randrange(2, 5) for _ in range(t.order)]
    stellare_invariants(t, ks)  # raises FormulaMismatch on any violation
    stellare_bases(t, ks)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_split_coalesce_round_trip(seed):
    t = random_s_tree(14, seed=seed)
    cut = internal_support(t)
    if not cut:
        return
    parts = split_at_support(t, cut[0])
    rebuilt = s_coalescence(CoalescencePlan(parts))
    assert canonical_form(rebuilt.tree) == canonical_form(t)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_s_tree_is_certified(seed):
    t = random_s_tree(12, seed=seed)
    cls = classify(t)
    assert cls.is_support_tree
    assert decompose(t).nonsingular_parts == ()


NONZERO = st.sampled_from((-3, -2, -1, 1, 2, 3))


@st.composite
def sparse_families(draw):
    """Sparse integer families; half of them share column 0 in every vector,
    as a star's or a spider's null basis does."""
    n = draw(st.integers(1, 10))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, n - 1), NONZERO, max_size=4), min_size=1, max_size=12)
    )
    if draw(st.booleans()):
        rows = [{**r, 0: draw(NONZERO)} for r in rows]
    return n, rows


@given(case=sparse_families())
@settings(max_examples=1000, deadline=None)
def test_peeling_proves_independence(case):
    n, rows = case
    vecs = [VertexVector(range(n), r) for r in rows]
    try:
        order = peel_independent(vecs)
    except SpanMismatch:
        return
    assert fraction_rank([[r.get(c, 0) for c in range(n)] for r in rows]) == len(rows)
    # the retirement order is a triangular submatrix with a nonzero diagonal
    assert sorted(i for i, _ in order) == list(range(len(rows)))
    for k, (i, c) in enumerate(order):
        assert rows[i][c] != 0
        assert all(c not in rows[j] for j, _ in order[k + 1:])


@given(t=relabeled_trees())
@settings(max_examples=100, deadline=None)
def test_peeling_succeeds_on_atom_families(t):
    for a in atom_set(t).atoms:
        for vecs in (forest_basis(a).vectors, atom_range_basis(a).vectors):
            assert len(peel_independent(vecs)) == len(vecs)


@given(t=relabeled_trees())
@settings(max_examples=100, deadline=None)
def test_witness_membership_matches_kernel_oracle(t):
    deficient = set(deficient_set(t)[0])
    rb = tree_range_basis(t)
    core = support_core(t).core
    for x, role in zip(rb.vectors, rb.roles):
        y = None
        if role == "bouquet":
            (y,) = [c for c in core if set(bouquet(t, c)) == set(x.entries)]
        assert in_column_space_by_witness(t, deficient, x, y)
        assert in_column_space(t, [x])


@given(t=labeled_trees(max_n=20), data=st.data())
@settings(max_examples=150, deadline=None)
def test_witness_membership_is_sound(t, data):
    # x = A y + z with z zero on the D-set: the witness accepts it, and the
    # kernel oracle must agree that x is in the column space
    deficient = set(deficient_set(t)[0])
    y = data.draw(st.none() | st.sampled_from(t.vertices))
    off = [v for v in t.vertices if v not in deficient]
    entries = data.draw(
        st.dictionaries(st.sampled_from(off), st.integers(-2, 2), max_size=4) if off else st.just({})
    )
    for w in t.adj[y] if y is not None else ():
        entries[w] = entries.get(w, 0) + 1
    x = VertexVector(t.vertices, entries)
    assert in_column_space_by_witness(t, deficient, x, y)
    assert in_column_space(t, [x])


@given(t=relabeled_trees())
@settings(max_examples=150, deadline=None)
def test_emitted_subtrees_classify_basic(t):
    # the builder proves basics from their shape and vector alone; the
    # matching-based classification is the oracle
    for a in atom_set(t).atoms:
        if a.order > 1:
            assert all(classify(b.tree).is_basic for b in forest_basis(a).basics)


@given(t=relabeled_trees())
@settings(max_examples=150, deadline=None)
def test_marker_rows_count_each_vertex_once(t):
    # each row is the signed indicator (-1 on core) of the vertices its basic
    # covers first, and sums to +1: a swap or graft row is a single +1, and a
    # seed row first covers one more supported vertex than core ones, which
    # is what the peeling argument in forest_basis needs
    for a in atom_set(t).atoms:
        fb = forest_basis(a)
        core = set(support_core(a).core)
        covered = set()
        for b, row in zip(fb.basics, fb.markers):
            fresh = [v for v in b.tree.vertices if v not in covered]
            assert row == {v: (-1 if v in core else 1) for v in fresh}
            assert sum(row.values()) == 1
            covered.update(fresh)
        assert sorted(v for row in fb.markers for v in row) == list(a.vertices)
