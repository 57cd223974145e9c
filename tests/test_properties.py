"""Randomized invariant checks over Prufer-sampled labeled trees."""

import hypothesis.strategies as st
from hypothesis import given, settings

from freetrees import canonical_form
from strees import (
    CoalescencePlan,
    PruferCode,
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
from strees.exact import rank_of_vectors


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
