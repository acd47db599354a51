"""Cartan matrices, reflections, and diagram queries."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petcoh.errors import IntegrityError
from petcoh.peterson import PetersonModel, nodes_of
from petcoh.roots import (
    CartanMatrix,
    LieType,
    _simple_edges,
    cartan_matrix,
    is_negative_root_vector,
    is_positive_root_vector,
    leading_minors_positive,
    parse_lie_type,
    simple_reflection_action,
)

from oracles import (
    bond_order,
    cartan_matrix_from_inner_products,
    is_connected,
    mask,
    regex_parse_lie_type,
)

ALL_SIMPLE = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5),
    ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
]

SUITE = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2"]

POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_cartan_matrix_matches_euclidean_oracle(family, rank):
    built = cartan_matrix(LieType(family, rank))
    oracle = cartan_matrix_from_inner_products(family, rank)
    assert [list(row) for row in built.entries] == oracle


def test_cartan_matrix_fixed_values():
    assert cartan_matrix("A1").entries == ((2,),)
    assert cartan_matrix("A2").entries == ((2, -1), (-1, 2))
    assert cartan_matrix("G2").entries == ((2, -1), (-3, 2))
    # the transpose convention would flip these two entries
    g2 = cartan_matrix("G2")
    assert g2.a(1, 2) == -1
    assert g2.a(2, 1) == -3
    b2 = cartan_matrix("B2")
    assert b2.a(1, 2) == -2 and b2.a(2, 1) == -1
    c2 = cartan_matrix("C2")
    assert c2.a(1, 2) == -1 and c2.a(2, 1) == -2
    f4 = cartan_matrix("F4")
    assert f4.a(2, 3) == -2 and f4.a(3, 2) == -1


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_cartan_matrix_invariants(family, rank):
    cm = cartan_matrix(LieType(family, rank))
    n = cm.rank
    for i in range(n):
        assert cm.entries[i][i] == 2
        for j in range(n):
            if i != j:
                assert cm.entries[i][j] <= 0
                assert (cm.entries[i][j] == 0) == (cm.entries[j][i] == 0)
                assert cm.entries[i][j] * cm.entries[j][i] in (0, 1, 2, 3)
    assert leading_minors_positive(cm.entries)


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9),
    ("F", 3), ("F", 5), ("G", 1), ("G", 3),
])
def test_invalid_rank_rejected(family, rank):
    with pytest.raises(ValueError, match="rank"):
        LieType(family, rank)


@pytest.mark.parametrize("rank", [2.0, True, "2", None])
def test_rank_must_be_an_int(rank):
    # unchecked, LieType("A", 2.0) would print as A2.0
    with pytest.raises(ValueError) as info:
        LieType("A", rank)
    assert str(info.value) == f"rank {rank!r} is not an int"


def test_lie_types_are_frozen_values():
    a2 = LieType("A", 2)
    assert a2 is not LieType("A", 2)
    assert a2 == LieType("A", 2) and hash(a2) == hash(LieType("A", 2))
    assert a2 != LieType("A", 3) and a2 != LieType("G", 2) and a2 != "A2"
    for name in ("family", "rank"):
        with pytest.raises(AttributeError):
            setattr(a2, name, 3)
    assert str(a2) == "A2"


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        LieType("H", 3)


def test_diagram_of_an_unknown_family_is_an_integrity_error():
    # LieType rejects the family first, so only a bug reaches this
    with pytest.raises(IntegrityError, match="no diagram for family 'H'"):
        _simple_edges("H", 3)


def test_parse_lie_type():
    assert parse_lie_type("A3") == (LieType("A", 3),)
    assert parse_lie_type("B2") == (LieType("B", 2),)
    assert parse_lie_type(" G2 ") == (LieType("G", 2),)
    assert parse_lie_type("A2+A1") == (LieType("A", 2), LieType("A", 1))
    with pytest.raises(ValueError):
        parse_lie_type("A")
    with pytest.raises(ValueError):
        parse_lie_type("X9")
    with pytest.raises(ValueError):
        parse_lie_type("A2+")


@pytest.mark.parametrize("text", [None, 3, b"A2", ["A2"]])
def test_parse_lie_type_of_the_wrong_type_is_a_one_line_value_error(text):
    # a one-line error, as for any other text that is not a type
    with pytest.raises(ValueError) as info:
        parse_lie_type(text)
    assert str(info.value) == f"Lie type {text!r} is not a str"


def _parse_outcome(parse, text):
    """The ``LieType``s a parse gives, or the message of its ``ValueError``."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# a part as typed, near misses included: a lower-case, non-ASCII or
# zero-padded rank, spaces around it, an empty part
_PART = st.one_of(
    st.tuples(st.sampled_from("ABCDEFGHXa "), st.text("0123456789٣³ ", max_size=3))
    .map("".join),
    st.text(max_size=4),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=8), st.lists(_PART, max_size=4).map("+".join)))
@example('A٣')
@example('A³')
@example('a3')
@example('A03')
@example(' E8 ')
@example('')
@example('A3+')
@example('A3\n')
@example('A1+ B2 ')
@example('E9')
@example('G0')
@example('F4+A')
def test_parse_matches_the_regex_oracle(text):
    # the string-method parse accepts exactly what the pattern did, with
    # the same LieTypes and the same messages
    assert _parse_outcome(parse_lie_type, text) == \
        _parse_outcome(regex_parse_lie_type, text)


def test_semisimple_block_assembly():
    cm = cartan_matrix("A2+A1")
    assert cm.rank == 3
    assert cm.entries == ((2, -1, 0), (-1, 2, 0), (0, 0, 2))
    assert cm.type_name() == "A2+A1"
    # block order is the listed order
    cm2 = cartan_matrix("A1+A2")
    assert cm2.entries == ((2, 0, 0), (0, 2, -1), (0, -1, 2))


def test_affine_matrices_rejected():
    # the degenerate rank-2 matrix fails the bond-product bound
    with pytest.raises(ValueError, match="bond product"):
        CartanMatrix([[2, -2], [-2, 2]])
    # the affine triangle has valid bonds but determinant zero
    with pytest.raises(ValueError, match="positive definite"):
        CartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_bad_cartan_data_rejected():
    with pytest.raises(ValueError, match="diagonal"):
        CartanMatrix([[1]])
    with pytest.raises(ValueError, match="<= 0"):
        CartanMatrix([[2, 1], [-1, 2]])
    with pytest.raises(ValueError, match="zero pattern"):
        CartanMatrix([[2, 0], [-1, 2]])
    with pytest.raises(ValueError, match="bond product"):
        CartanMatrix([[2, -4], [-1, 2]])
    with pytest.raises(ValueError, match="square"):
        CartanMatrix([[2, 0]])


@pytest.mark.parametrize("entries", [
    [[2.9, -1], [-1, 2]],
    [["2", "-1"], ["-1", "2"]],
    [[2, -1.5], [-1, 2]],
    [[2, -1], [-1, True]],
], ids=["float-diagonal", "strings", "float-bond", "bool"])
def test_cartan_entries_must_be_ints(entries):
    # each of these once truncated to A2 through int(); like LieType's rank
    # and Ideal's coefficients, an entry that is not an int is rejected
    with pytest.raises(ValueError, match="is not an int"):
        CartanMatrix(entries)


def test_simple_reflection_examples():
    for name in ("A2", "B2", "G2", "A3"):
        cm = cartan_matrix(name)
        for j in cm.nodes():
            a_j = tuple(1 if k == j else 0 for k in cm.nodes())
            assert simple_reflection_action(cm, j, a_j) == \
                tuple(-c for c in a_j)
    a2 = cartan_matrix("A2")
    assert simple_reflection_action(a2, 2, (1, 0)) == (1, 1)
    g2 = cartan_matrix("G2")
    assert simple_reflection_action(g2, 2, (1, 0)) == (1, 1)
    # the triple bond shows on the other side
    assert simple_reflection_action(g2, 1, (0, 1)) == (3, 1)


def test_simple_reflection_bounds():
    a2 = cartan_matrix("A2")
    with pytest.raises(IndexError):
        simple_reflection_action(a2, 0, (1, 0))
    with pytest.raises(IndexError):
        simple_reflection_action(a2, 3, (1, 0))


@pytest.mark.parametrize("name", SUITE)
def test_reflection_is_involution_on_roots(name):
    cm = cartan_matrix(name)
    roots = set(cm.positive_roots()) | {
        tuple(-c for c in v) for v in cm.positive_roots()}
    for j in cm.nodes():
        for v in roots:
            assert simple_reflection_action(
                cm, j, simple_reflection_action(cm, j, v)) == v


@pytest.mark.parametrize("name", SUITE)
def test_reflections_permute_roots(name):
    cm = cartan_matrix(name)
    pos = cm.positive_roots()
    roots = set(pos) | {tuple(-c for c in v) for v in pos}
    zero = (0,) * cm.rank
    assert zero not in roots
    for j in cm.nodes():
        images = {simple_reflection_action(cm, j, v) for v in roots}
        assert images == roots


def test_root_sign_predicates_match_their_definition():
    # max/min against every coordinate <= 0 (>= 0) with one < 0 (> 0), on
    # every vector of length 1 to 3 with coordinates in -2..2
    for n in (1, 2, 3):
        for v in itertools.product(range(-2, 3), repeat=n):
            assert is_negative_root_vector(v) == (
                all(c <= 0 for c in v) and any(c < 0 for c in v)), v
            assert is_positive_root_vector(v) == (
                all(c >= 0 for c in v) and any(c > 0 for c in v)), v


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_positive_root_counts(family, rank):
    cm = cartan_matrix(LieType(family, rank))
    assert len(cm.positive_roots()) == POSITIVE_ROOT_COUNTS[family](rank)


def test_bond_order():
    a2 = cartan_matrix("A2")
    assert bond_order(a2, 1, 2) == 3
    a3 = cartan_matrix("A3")
    assert bond_order(a3, 1, 3) == 2  # disconnected pair commutes
    b2 = cartan_matrix("B2")
    assert bond_order(b2, 1, 2) == 4
    g2 = cartan_matrix("G2")
    assert bond_order(g2, 1, 2) == 6
    assert bond_order(g2, 2, 1) == 6
    with pytest.raises(ValueError):
        bond_order(a2, 1, 1)


def components(cartan, K) -> list[tuple[int, ...]]:
    """The components of K in the model's table by mask, as node tuples."""
    return [nodes_of(C) for C in PetersonModel(cartan)._components[mask(K)]]


def test_connectivity_queries():
    a4 = cartan_matrix("A4")
    assert is_connected(a4, (1, 2, 3))
    assert not is_connected(a4, (1, 3))
    assert not is_connected(a4, ())
    assert components(a4, (1, 2, 4)) == [(1, 2), (4,)]
    d4 = cartan_matrix("D4")
    assert is_connected(d4, (2, 3, 4))  # both legs attach through node 2
    assert not is_connected(d4, (3, 4))
    mixed = cartan_matrix("A2+A1")
    assert not is_connected(mixed, (1, 2, 3))
    assert components(mixed, (1, 2, 3)) == [(1, 2), (3,)]
    # on E6, node 4 joins the components (2,) and (3,) of {2, 3} below it,
    # and joins (2,) alone of {1, 2}
    e6 = cartan_matrix("E6")
    assert components(e6, (2, 3)) == [(2,), (3,)]
    assert components(e6, (2, 3, 4)) == [(2, 3, 4)]
    assert components(e6, (1, 2, 4)) == [(1,), (2, 4)]
    assert components(a4, ()) == []


@pytest.mark.parametrize("name", ["A4", "D4", "E6", "A2+A1", "B2+G2+A1"])
def test_connected_components_match_the_flood_fill(name):
    # the model's components by mask are connected, disjoint, cover K, and
    # no two of them are joined by an edge
    cartan = cartan_matrix(name)
    nodes = cartan.nodes()
    table = PetersonModel(cartan)._components
    for k in range(1, len(nodes) + 1):
        for K in itertools.combinations(nodes, k):
            components = [nodes_of(C) for C in table[mask(K)]]
            assert sorted(x for C in components for x in C) == list(K)
            assert all(is_connected(cartan, C) for C in components)
            assert is_connected(cartan, K) == (len(components) == 1)
