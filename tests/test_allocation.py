"""Tests for allocation builders, validation, and routing matrices."""

import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storagebalance import allocation
from storagebalance.allocation import (
    Allocation,
    UnsupportedDesignError,
    allocation_from_dict,
    allocation_to_dict,
    build_block_design,
    build_clustering,
    build_cyclic,
    build_cyclic_xor,
    build_single_choice,
    hall_check,
    load_allocation,
    node_expansion,
    overlap_sum,
    pairwise_overlap_histogram,
    perfect_difference_set,
    r_gap_radius,
    save_allocation,
    to_matrices,
    validate_regular_balanced,
)
from storagebalance.loadsolver import FAMILIES, min_max_load, t_star_batch
from storagebalance.spacings import spacing_matrix
from util import (
    REFERENCE_BUILDERS,
    crowded_allocation,
    dense,
    is_fano_plane,
    random_regular_allocation,
    reference_incidence,
    reference_num_portions,
    reference_portions,
    reference_to_matrices,
    reference_validate,
    time_limit,
)


def node_contents(alloc):
    """Set of objects hosted per node (replica view: any set membership)."""
    out = [set() for _ in range(alloc.n)]
    for i in range(alloc.k):
        for s in alloc.recovery_sets[i]:
            for v in s:
                out[v].add(i)
    return out


# ---------------------------------------------------------------------------
# single choice
# ---------------------------------------------------------------------------


def test_single_choice_layout():
    a = build_single_choice(2, 2)
    assert node_contents(a) == [{0, 1}, {2, 3}]
    assert (a.d, a.r, a.k) == (1, 1, 4)
    assert validate_regular_balanced(a) == []


def test_single_choice_identity():
    a = build_single_choice(3, 1)
    assert node_contents(a) == [{0}, {1}, {2}]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


def test_clustering_nine_objects():
    # three clusters of three nodes, objects a..i in index blocks
    a = build_clustering(9, 3)
    contents = node_contents(a)
    assert contents[0] == contents[1] == contents[2] == {0, 1, 2}
    assert contents[3] == contents[4] == contents[5] == {3, 4, 5}
    assert contents[6] == contents[7] == contents[8] == {6, 7, 8}
    assert validate_regular_balanced(a) == []


def test_clustering_d1_is_single_choice():
    a = build_clustering(4, 1)
    b = build_single_choice(4, 1)
    assert node_contents(a) == node_contents(b)


def test_clustering_requires_divisibility():
    with pytest.raises(ValueError):
        build_clustering(10, 3)


def test_clustering_is_r_gap_at_d_minus_1():
    a = build_clustering(9, 3)
    assert r_gap_radius(a) <= 2


# ---------------------------------------------------------------------------
# cyclic
# ---------------------------------------------------------------------------


def test_cyclic_seven_three_layout():
    # node j hosts objects {j, j-1, j-2} mod 7
    a = build_cyclic(7, 3)
    expected = [sorted({j % 7, (j - 1) % 7, (j - 2) % 7}) for j in range(7)]
    assert [sorted(c) for c in node_contents(a)] == expected


def test_cyclic_three_two_choice_sets():
    a = build_cyclic(3, 2)
    assert a.recovery_sets == (((0,), (1,)), ((1,), (2,)), ((2,), (0,)))


def test_cyclic_sets_match_per_object_walk():
    for n, d in ((1, 1), (3, 2), (5, 5), (7, 3), (12, 4), (100, 1), (100, 100)):
        sets = build_cyclic(n, d).recovery_sets
        assert sets == tuple(tuple(((i + j) % n,) for j in range(d)) for i in range(n))
        assert all(type(v) is int for obj in sets for s in obj for v in s)


def test_cyclic_full_replication():
    a = build_cyclic(5, 5)
    for c in node_contents(a):
        assert c == set(range(5))


def test_cyclic_r_gap_tightness():
    for n, d in ((7, 3), (12, 4), (9, 2)):
        a = build_cyclic(n, d)
        assert r_gap_radius(a) == d - 1


def test_cyclic_rejects_d_beyond_n():
    with pytest.raises(ValueError):
        build_cyclic(4, 5)


# ---------------------------------------------------------------------------
# block design
# ---------------------------------------------------------------------------

FANO_REFERENCE = [  # a reference seven-node layout with pairwise overlap one
    (0, 1, 2),
    (0, 5, 6),
    (0, 3, 4),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


#: The first-lexicographic perfect difference sets that a backtracking search
#: over sets starting 0, 1 returns, for the orders it finishes in under a
#: second.
FIRST_DIFFERENCE_SETS = {
    2: (0, 1),
    3: (0, 1, 3),
    4: (0, 1, 3, 9),
    5: (0, 1, 4, 14, 16),
    6: (0, 1, 3, 8, 12, 18),
    8: (0, 1, 3, 13, 32, 36, 43, 52),
    9: (0, 1, 3, 7, 15, 31, 36, 54, 63),
    10: (0, 1, 3, 9, 27, 49, 56, 61, 77, 81),
}


def is_perfect_difference_set(ds, v: int) -> bool:
    """Every nonzero residue mod v is exactly one difference of two members."""
    return sorted((x - y) % v for x in ds for y in ds if x != y) == list(range(1, v))


def test_difference_set_small_orders():
    for d, want in FIRST_DIFFERENCE_SETS.items():
        ds = perfect_difference_set(d)
        assert ds == want
        assert is_perfect_difference_set(ds, d * d - d + 1)


@pytest.mark.parametrize("d", [12, 14, 17])
def test_block_design_large_orders(d):
    # d - 1 = 11, 13 and 16 are prime powers; the alarm fails a build that
    # grows exponentially with d instead of hanging the suite
    with time_limit(10):
        a = build_block_design(d)
        v = d * d - d + 1
        base = perfect_difference_set(d)
        assert is_perfect_difference_set(base, v)
        assert a.recovery_sets[0] == tuple((h,) for h in sorted(-x % v for x in base))
        assert validate_regular_balanced(a) == []
        assert pairwise_overlap_histogram(a) == {1: a.k * (a.k - 1) // 2}


def test_block_design_three_is_fano_up_to_relabeling():
    a = build_block_design(3)
    assert a.n == a.k == 7
    assert is_fano_plane(node_contents(a)) and is_fano_plane(FANO_REFERENCE)
    assert validate_regular_balanced(a) == []


def test_block_design_pairwise_overlaps():
    for d in (3, 5):
        a = build_block_design(d)
        assert a.n == d * d - d + 1
        hist = pairwise_overlap_histogram(a)
        assert hist == {1: a.k * (a.k - 1) // 2}
        for c in node_contents(a):
            assert len(c) == d


def test_block_design_not_r_gap():
    a = build_block_design(3)
    # every pair overlaps, so the radius is the maximal circular distance
    assert r_gap_radius(a) == 3


def test_block_design_unsupported_orders():
    with pytest.raises(UnsupportedDesignError):
        build_block_design(7)  # d-1 = 6 is not a prime power
    with pytest.raises(UnsupportedDesignError):
        build_block_design(2)
    with time_limit(1), pytest.raises(UnsupportedDesignError, match="prime power"):
        perfect_difference_set(7)  # d - 1 = 6: raised before any field arithmetic


# ---------------------------------------------------------------------------
# cyclic XOR
# ---------------------------------------------------------------------------


def test_cyclic_xor_structure():
    a = build_cyclic_xor(7, 3, 2)
    assert a.recovery_sets[0] == ((0,), (1, 2), (3, 4))
    assert a.recovery_sets[4] == ((4,), (5, 6), (0, 1))
    assert validate_regular_balanced(a) == []


def test_cyclic_xor_minimum_size():
    with pytest.raises(ValueError):
        build_cyclic_xor(3, 3, 2)  # 3 < 1 + 2*2
    with pytest.raises(ValueError):
        build_cyclic_xor(6, 2, 1)  # replicas are not an XOR design


# ---------------------------------------------------------------------------
# stored form: the builders' portion tables against reference tuples
# ---------------------------------------------------------------------------

#: Corner cases of every family: n = 1, d = n, m > 1, and XOR windows that
#: wrap around the ring, at the smallest n = 1 + r(d-1) and above it.
EDGE_DESIGNS = [
    ("single_choice", dict(n=1, m=1)),
    ("single_choice", dict(n=1, m=3)),
    ("single_choice", dict(n=4, m=2)),
    ("clustering", dict(n=1, d=1)),
    ("clustering", dict(n=4, d=4)),
    ("clustering", dict(n=9, d=3)),
    ("cyclic", dict(n=1, d=1)),
    ("cyclic", dict(n=6, d=6)),
    ("cyclic", dict(n=10, d=3)),
    ("block_design", dict(d=3)),
    ("block_design", dict(d=5)),
    ("cyclic_xor", dict(n=1, d=1, r=2)),
    ("cyclic_xor", dict(n=7, d=4, r=2)),
    ("cyclic_xor", dict(n=9, d=3, r=2)),
    ("cyclic_xor", dict(n=11, d=3, r=3)),
]


def _draw_family_params(kind, data):
    if kind == "single_choice":
        return dict(n=data.draw(st.integers(1, 12)), m=data.draw(st.integers(1, 4)))
    if kind == "clustering":
        d = data.draw(st.integers(1, 6))
        return dict(n=d * data.draw(st.integers(1, 4)), d=d)
    if kind == "cyclic":
        n = data.draw(st.integers(1, 20))
        return dict(n=n, d=data.draw(st.integers(1, n)))
    if kind == "block_design":
        return dict(d=data.draw(st.sampled_from([3, 4, 5, 6, 8])))
    d, r = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 4))
    return dict(n=data.draw(st.integers(1 + r * (d - 1), 1 + r * (d - 1) + 6)), d=d, r=r)


def _assert_matches_reference(kind, params):
    built, ref = FAMILIES[kind].build(**params), REFERENCE_BUILDERS[kind](**params)
    assert built.recovery_sets == ref.recovery_sets
    assert all(
        type(obj) is tuple and type(s) is tuple and type(v) is int
        for obj in built.recovery_sets for s in obj for v in s
    )
    for got, want in zip(built.portions, reference_portions(ref)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    assert allocation_to_dict(built) == allocation_to_dict(ref)
    assert built == ref and hash(built) == hash(ref)


@pytest.mark.parametrize("kind", list(FAMILIES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_builders_match_reference_tuples(kind, data):
    _assert_matches_reference(kind, _draw_family_params(kind, data))


@pytest.mark.parametrize("kind,params", EDGE_DESIGNS)
def test_builders_match_reference_tuples_at_the_edges(kind, params):
    _assert_matches_reference(kind, params)


def test_cyclic_build_and_table_stay_small():
    # nested tuples of 300 000 node ids took 41.6 MiB; the table is three
    # int64 arrays of 2.3 MiB each
    tracemalloc.start()
    try:
        build_cyclic(100_000, 3).portions
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("kind,params", EDGE_DESIGNS)
def test_saved_build_loads_equal_and_keeps_its_kind(tmp_path, kind, params):
    built = FAMILIES[kind].build(**params)
    path = tmp_path / "alloc.json"
    save_allocation(built, str(path))
    loaded = load_allocation(str(path))
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.kind == kind
    fields = dict(n=built.n, k=built.k, d=built.d, r=built.r)
    custom = Allocation(**fields, kind="custom",
                        recovery_sets=REFERENCE_BUILDERS[kind](**params).recovery_sets)
    assert custom != built
    relabelled = allocation_from_dict(dict(allocation_to_dict(built), kind="custom"))
    assert custom == relabelled and hash(custom) == hash(relabelled)


def test_ids_beyond_int64_compare_by_their_values():
    def one_node(v):
        return Allocation(n=3, k=1, d=1, r=1, kind="custom", recovery_sets=(((v,),),))

    assert one_node(2**64) == one_node(2**64)
    assert hash(one_node(2**64)) == hash(one_node(2**64))
    assert one_node(2**64) != one_node(2**65)  # both -1 in the table
    assert one_node(2**64) != one_node(-1)
    assert one_node(1) == one_node(1) != one_node(2)


def test_allocations_are_immutable():
    a = build_cyclic(5, 2)
    with pytest.raises(AttributeError):
        a.kind = "custom"
    with pytest.raises(AttributeError):
        del a.n
    assert a.kind == "cyclic"


# ---------------------------------------------------------------------------
# validation, overlaps, expansion
# ---------------------------------------------------------------------------


def test_validation_reports_deleted_copy():
    a = build_cyclic(7, 3)
    sets = [list(map(tuple, s)) for s in a.recovery_sets]
    sets[2] = [s for s in sets[2] if s != (3,)]  # drop one copy of object 2
    broken = Allocation(
        n=7, k=7, d=3, r=1, kind="custom",
        recovery_sets=tuple(tuple(s) for s in sets),
    )
    assert validate_regular_balanced(broken) == [
        "object 2: has 2 recovery sets, expected 3",
        "unbalanced: per-node participation ranges 2..3 (e.g. nodes [0, 1, 2, 3])",
    ]


def test_validation_reports_duplicate_object_on_node():
    dup = Allocation(
        n=2, k=2, d=2, r=1, kind="custom",
        recovery_sets=(((0,), (0,)), ((1,), (0,))),
    )
    assert validate_regular_balanced(dup) == [  # object 0's two choices overlap
        "node 0: object 0 appears in more than one of its choices",
        "object 0: recovery sets overlap at [0]",
        "unbalanced: per-node participation ranges 1..3 (e.g. nodes [0, 1])",
    ]


def _with_object(alloc, i, choices):
    """``alloc`` as a custom design, with object i's choices replaced."""
    sets = list(alloc.recovery_sets)
    sets[i] = choices
    return Allocation(
        n=alloc.n, k=alloc.k, d=alloc.d, r=alloc.r, kind="custom", recovery_sets=tuple(sets)
    )


@pytest.mark.parametrize(
    "alloc,expected",
    [
        pytest.param(
            Allocation(n=2, k=2, d=1, r=1, kind="custom", recovery_sets=(((0, 1),), ((1, 0),))),
            [
                "object 0: replica choice (0, 1) is not a single node",
                "object 1: replica choice (1, 0) is not a single node",
            ],
            id="replica-size",
        ),
        pytest.param(
            _with_object(build_cyclic_xor(7, 3, 2), 0, ((0,), (1, 2, 5), (3, 4))),
            [
                "object 0: choice (1, 2, 5) has size 3, expected 1 or 2",
                "unbalanced: per-node participation ranges 5..6 (e.g. nodes [0, 1, 2, 3])",
            ],
            id="xor-size",
        ),
        pytest.param(
            _with_object(build_cyclic_xor(5, 2, 2), 0, ((0,), (1, 1))),
            [
                "node 1: object 0 appears in more than one of its choices",
                "unbalanced: per-node participation ranges 2..4 (e.g. nodes [1, 2])",
            ],
            id="node-repeated-in-choice",
        ),
        pytest.param(
            _with_object(build_single_choice(3, 1), 1, ((0,),)),
            ["unbalanced: per-node participation ranges 0..2 (e.g. nodes [0, 1])"],
            id="unbalanced",
        ),
    ],
)
def test_validation_reports_exact_violations(alloc, expected):
    assert validate_regular_balanced(alloc) == expected


@pytest.mark.parametrize("node", [-1, 3, 2**64])
def test_node_out_of_range_is_named_not_wrapped(node):
    # at node -1 a wrapped index would read node 2 and look like a valid design
    a = Allocation(n=3, k=3, d=1, r=1, kind="custom", recovery_sets=(((0,),), ((1,),), ((node,),)))
    message = f"object 2: node {node} out of range [0, 3)"
    with pytest.raises(ValueError, match=re.escape(message)):
        to_matrices(a)
    with pytest.raises(ValueError, match=re.escape(message)):
        a.incidence
    assert validate_regular_balanced(a) == [
        message, "unbalanced: per-node participation ranges 0..1 (e.g. nodes [0, 1, 2])"
    ]


@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: build_cyclic(7, 3), 2 * 3 * 7),
        (lambda: build_clustering(9, 3), 2 * 3 * 9),
        (lambda: build_block_design(3), 42),
    ],
)
def test_overlap_sum_identity(builder, expected):
    assert overlap_sum(builder()) == expected


def test_overlap_sum_rejects_xor():
    with pytest.raises(UnsupportedDesignError):
        overlap_sum(build_cyclic_xor(7, 3, 2))


def test_node_expansion_examples():
    a = build_cyclic(7, 3)
    assert node_expansion(a, {0}) == 3
    assert node_expansion(a, {0, 1}) == 4
    with pytest.raises(ValueError):
        node_expansion(a, {9})


@given(st.integers(min_value=2, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_rgap_expansion_bounds(n, data):
    d = data.draw(st.integers(min_value=1, max_value=n))
    a = build_cyclic(n, d)
    r = d - 1
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    x = data.draw(st.integers(min_value=1, max_value=n))
    objs = {(start + t) % n for t in range(x)}
    expansion = node_expansion(a, objs)
    assert len(objs) <= expansion <= len(objs) + 2 * r


def test_hall_condition_holds_on_builders():
    for alloc in (
        build_cyclic(7, 3), build_clustering(9, 3), build_block_design(3), build_cyclic(40, 3),
        build_cyclic(3000, 3),
    ):
        assert hall_check(alloc) == (True, None)


def test_hall_check_finds_violation():
    # two objects forced onto one node
    bad = Allocation(
        n=3, k=3, d=1, r=1, kind="custom",
        recovery_sets=(((0,),), ((0,),), ((2,),)),
    )
    ok, witness = hall_check(bad)
    assert not ok and witness == (0, 1)


def test_hall_check_is_exact_at_large_k():
    # the only deficient sets contain objects 0-3, which share three nodes
    assert hall_check(crowded_allocation()) == (False, (0, 1, 2, 3))
    # k = 6 objects on 3 nodes: only the whole set has the largest deficiency
    assert hall_check(build_single_choice(3, 2)) == (False, (0, 1, 2, 3, 4, 5))


def _design(kind, data):
    """A small design of the named kind, drawn with hypothesis."""
    if kind == "random_regular":
        n = data.draw(st.integers(2, 16))
        d = data.draw(st.integers(1, min(n, 3)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        return random_regular_allocation(n, d, np.random.default_rng(seed))
    if kind == "cyclic":
        n = data.draw(st.integers(1, 18))
        return build_cyclic(n, data.draw(st.integers(1, n)))
    if kind == "clustering":
        d = data.draw(st.integers(1, 4))
        return build_clustering(d * data.draw(st.integers(1, 5)), d)
    if kind == "single_choice":
        return build_single_choice(data.draw(st.integers(1, 16)), 1)
    if kind == "block_design":
        return build_block_design(data.draw(st.sampled_from([3, 4])))
    if kind == "cyclic_xor":
        d, r = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        return build_cyclic_xor(data.draw(st.integers(1 + r * (d - 1), 16)), d, r)
    if kind == "broken":
        # set counts off d, choice sizes other than 1 and r, repeated and
        # (in half the draws) out-of-range nodes
        n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        d, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        lo, hi = data.draw(st.sampled_from([(0, n - 1), (-2, n + 1)]))
        choice = st.lists(st.integers(lo, hi), max_size=r + 1).map(tuple)
        obj = st.lists(choice, min_size=d - 1, max_size=d + 1).map(tuple)
        sets = data.draw(st.lists(obj, min_size=k, max_size=k))
        return Allocation(n=n, k=k, d=d, r=r, kind="custom", recovery_sets=tuple(sets))
    # free layouts: any node per choice, so objects may name one node twice
    n = data.draw(st.integers(1, 8))
    k = data.draw(st.integers(1, 16))
    d = data.draw(st.integers(1, 3))
    choice = st.integers(0, n - 1).map(lambda v: (v,))
    sets = data.draw(st.lists(st.tuples(*[choice] * d), min_size=k, max_size=k))
    return Allocation(n=n, k=k, d=d, r=1, kind="custom", recovery_sets=tuple(sets))


def _hall_brute_force(alloc):
    """Hall verdict and witness over all 2^k object sets, as bitmasks.

    unions[mask] is the node bitmask of the objects whose bits are set in
    mask, built by doubling: one OR per mask.  The witness is the
    intersection of every set with the largest deficiency |S| - |N(S)|.
    """
    unions = np.zeros(1, np.int64)
    for obj in alloc.recovery_sets:
        unions = np.concatenate([unions, unions | sum(1 << v for v in {v for s in obj for v in s})])
    masks = np.arange(unions.size)
    deficiency = np.bitwise_count(masks).astype(int) - np.bitwise_count(unions)
    worst = deficiency.max()  # the empty set gives 0
    if worst == 0:
        return True, None
    common = int(np.bitwise_and.reduce(masks[deficiency == worst]))
    return False, tuple(i for i in range(alloc.k) if common >> i & 1)


def test_structure_queries_on_duplicate_node():
    # object 1 names node 1 in both choices, as a tampered file may
    sets = list(build_cyclic(5, 2).recovery_sets)
    sets[1] = ((1,), (1,))
    a = Allocation(n=5, k=5, d=2, r=1, kind="custom", recovery_sets=tuple(sets))
    indptr, indices = a.incidence
    assert indices[indptr[1] : indptr[2]].tolist() == [1]
    assert overlap_sum(a) == 8  # node degrees (2, 2, 1, 2, 2)
    assert pairwise_overlap_histogram(a) == {0: 6, 1: 4}
    assert r_gap_radius(a) == 1
    assert node_expansion(a, {1}) == 1
    assert hall_check(a) == (True, None)


def test_pair_queries_do_not_depend_on_row_blocks(monkeypatch):
    import storagebalance.allocation as allocation

    def queries():
        # fresh designs: each allocation keeps the pair walk it made first
        designs = (build_cyclic(40, 3), build_block_design(4), build_single_choice(9, 1))
        return [(pairwise_overlap_histogram(a), r_gap_radius(a)) for a in designs]

    whole = queries()
    monkeypatch.setattr(allocation, "_PAIR_BLOCK", 7)  # blocks of one row or a few
    assert queries() == whole


def test_pair_queries_share_one_walk(monkeypatch):
    import storagebalance.allocation as allocation

    walks = []
    real = allocation._shared_pairs

    def counting(alloc):
        walks.append(alloc)
        return real(alloc)

    monkeypatch.setattr(allocation, "_shared_pairs", counting)
    a = build_cyclic(12, 3)
    assert r_gap_radius(a) == 2
    hist = pairwise_overlap_histogram(a)
    assert hist == {0: 42, 1: 12, 2: 12}
    hist[0] = -1  # the caller's copy
    assert pairwise_overlap_histogram(a) == {0: 42, 1: 12, 2: 12}
    assert r_gap_radius(a) == 2
    assert walks == [a]


def _pair_blocks(monkeypatch, alloc):
    """(first row, row count) of every block of object rows that _shared_pairs forms."""
    import storagebalance.allocation as allocation

    blocks = []
    real = allocation._row_blocks

    def recording(work):
        for lo, hi in real(work):
            blocks.append((lo, hi - lo))
            yield lo, hi

    monkeypatch.setattr(allocation, "_row_blocks", recording)
    list(allocation._shared_pairs(alloc))
    return blocks


@pytest.mark.parametrize("cap", [7, 40, 300])
def test_pair_blocks_are_sized_by_products(monkeypatch, cap):
    import storagebalance.allocation as allocation

    monkeypatch.setattr(allocation, "_PAIR_BLOCK", cap)
    for a in (crowded_allocation(), build_cyclic(40, 3), build_block_design(4)):
        unions = [{v for s in obj for v in s} for obj in a.recovery_sets]
        # row i makes one product for each node v of i and each object j > i on v
        products = [sum(v in unions[j] for v in u for j in range(i + 1, a.k))
                    for i, u in enumerate(unions)]
        blocks = _pair_blocks(monkeypatch, a)
        assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [r for _, r in blocks[:-1]]))
        assert sum(r for _, r in blocks) == a.k
        for lo, rows in blocks:
            held = sum(products[lo : lo + rows])
            assert rows == 1 or held <= cap
            if lo + rows < a.k:  # the next row would not have fit
                assert held + products[lo + rows] > cap


def test_pair_blocks_at_large_k_do_not_grow_with_k(monkeypatch):
    # 20 000 rows of 3 pairs each fit the default cap in one block
    assert _pair_blocks(monkeypatch, build_cyclic(20_000, 3)) == [(0, 20_000)]


@pytest.mark.parametrize(
    "kind",
    [
        "random_regular", "cyclic", "clustering", "single_choice", "block_design", "cyclic_xor",
        "free",
    ],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_structure_queries_match_brute_force(kind, data):
    a = _design(kind, data)
    k = a.k
    unions = [{v for s in obj for v in s} for obj in a.recovery_sets]
    for _ in range(3):
        objs = data.draw(st.sets(st.integers(0, k - 1)))
        assert node_expansion(a, objs) == len(set().union(*(unions[i] for i in objs)))
    assert hall_check(a) == _hall_brute_force(a)
    if a.r != 1:
        for query in (overlap_sum, r_gap_radius, pairwise_overlap_histogram):
            with pytest.raises(UnsupportedDesignError):
                query(a)
        return
    pairs = [(i, j, len(unions[i] & unions[j])) for i, j in combinations(range(k), 2)]
    assert overlap_sum(a) == 2 * sum(c for _, _, c in pairs)
    hist = {}
    for _, _, c in pairs:
        hist[c] = hist.get(c, 0) + 1
    assert list(pairwise_overlap_histogram(a).items()) == sorted(hist.items())
    gaps = [min(j - i, k - (j - i)) for i, j, c in pairs if c]
    assert r_gap_radius(a) == max(gaps, default=0)


@pytest.mark.parametrize(
    "kind",
    [
        "random_regular", "cyclic", "clustering", "single_choice", "block_design", "cyclic_xor",
        "free", "broken",
    ],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_portion_table_readers_match_reference_walks(kind, data):
    a = _design(kind, data)
    assert validate_regular_balanced(a) == reference_validate(a)
    assert a.num_portions == reference_num_portions(a)
    outside = [(i, v) for i, obj in enumerate(a.recovery_sets) for s in obj for v in s
               if not 0 <= v < a.n]
    if outside:
        message = re.escape("object {}: node {} out of range [0, {})".format(*outside[0], a.n))
        with pytest.raises(ValueError, match=message):
            a.incidence
        with pytest.raises(ValueError, match=message):
            to_matrices(a)
        return
    B, ref = a.incidence, reference_incidence(a)
    assert ref.shape == (a.k, a.n)
    for part in ("indptr", "indices"):
        assert np.array_equal(getattr(B, part), getattr(ref, part))
    m, ref_m = to_matrices(a), reference_to_matrices(a)
    assert (m.n, m.k) == (ref_m.n, ref_m.k) == (a.n, a.k)
    for part in ("owner", "indptr", "nodes"):
        assert np.array_equal(getattr(m, part), getattr(ref_m, part))
        assert getattr(m, part).dtype == getattr(ref_m, part).dtype


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def test_matrices_replica_example():
    M, T = dense(to_matrices(build_cyclic(3, 2)))
    expected = np.array(
        [[1, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]], dtype=np.int8
    )
    assert np.array_equal(M, expected)
    assert np.array_equal(T, np.repeat(np.eye(3, dtype=np.int8), 2, axis=1))


def test_matrices_xor_example():
    M, _ = dense(to_matrices(build_cyclic_xor(3, 2, 2)))
    expected = np.array(
        [[1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0]], dtype=np.int8
    )
    assert np.array_equal(M, expected)


def test_matrices_cyclic_xor_n6():
    M, _ = dense(to_matrices(build_cyclic_xor(6, 2, 2)))
    expected = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0],
        ],
        dtype=np.int8,
    )
    assert np.array_equal(M, expected)
    assert M.sum(axis=0).tolist() == [1, 2] * 6  # replica cols 1, recovery cols r


@pytest.mark.parametrize(
    "alloc",
    [
        build_cyclic(7, 3),
        build_clustering(9, 3),
        build_block_design(3),
        build_single_choice(4, 2),
        build_cyclic_xor(7, 3, 2),
    ],
)
def test_matrix_invariants(alloc):
    M, T = dense(to_matrices(alloc))
    assert M.shape[1] == T.shape[1] == alloc.num_portions
    assert np.all(T.sum(axis=0) == 1)  # each portion belongs to one object
    assert np.all(T.sum(axis=1) == alloc.d)  # d portions per object
    col_weights = M.sum(axis=0)
    if alloc.r == 1:
        assert np.all(col_weights == 1)
    else:
        assert set(col_weights.tolist()) == {1, alloc.r}


def test_matrices_of_a_large_design_stay_small():
    # dense int8 M and T took 143 MiB at n = 5000; the compressed columns
    # are a few int64 arrays of 15 000 entries
    alloc = build_cyclic(5000, 3)
    alloc.portions  # the allocation's own table is not counted
    tracemalloc.start()
    try:
        to_matrices(alloc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_allocation_json_roundtrip(tmp_path):
    a = build_cyclic_xor(7, 3, 2)
    path = tmp_path / "alloc.json"
    save_allocation(a, str(path))
    b = load_allocation(str(path))
    assert a == b


def test_allocation_from_dict_rejects_bad_nodes():
    data = allocation_to_dict(build_cyclic(3, 2))
    data["recovery_sets"][0][0] = [5]
    with pytest.raises(ValueError):
        allocation_from_dict(data)


def test_allocation_needs_k_recovery_sets():
    # three objects under k = 2 once failed only at the first incidence query
    sets = (((0,),), ((1,),), ((2,),))
    with pytest.raises(ValueError, match=re.escape("recovery_sets has 3 objects, expected k=2")):
        Allocation(n=5, k=2, d=1, r=1, kind="custom", recovery_sets=sets)
    data = dict(allocation_to_dict(build_single_choice(3, 1)), k=2)
    with pytest.raises(ValueError, match=re.escape("recovery_sets has 3 objects, expected k=2")):
        allocation_from_dict(data)


def test_allocation_from_dict_rejects_missing_field():
    with pytest.raises(ValueError):
        allocation_from_dict({"n": 3, "k": 3})


def test_loaded_family_kind_must_match_its_builder():
    # the Fano plane labelled cyclic is not the cyclic design (7, 3): at the
    # label's kind the cyclic closed form would solve it
    data = allocation_to_dict(build_block_design(3))
    data["kind"] = "cyclic"
    alloc = allocation_from_dict(data)
    assert alloc.kind == "custom"
    rows = spacing_matrix(7, 5.6, 1, 3)
    lp = [min_max_load(to_matrices(alloc), row).max_load for row in rows]
    assert t_star_batch(alloc, rows).tolist() == pytest.approx(lp, abs=1e-12)


def test_loaded_kind_whose_builder_raises_becomes_custom():
    # n = 3 = d^2 - d + 1 at d = 2, where no block design is built
    data = dict(allocation_to_dict(build_cyclic(3, 2)), kind="block_design")
    assert allocation_from_dict(data).kind == "custom"


def test_loaded_block_design_of_another_n_is_not_built(monkeypatch):
    # building at a file's d costs O(d^3) whatever the file's size; a file
    # whose n is not d^2 - d + 1 is no block design, whatever its d
    def build(d):
        raise AssertionError(f"built a difference set of size {d}")

    monkeypatch.setattr(allocation, "perfect_difference_set", build)
    data = dict(allocation_to_dict(build_cyclic(5, 2)), kind="block_design", d=12)
    assert allocation_from_dict(data).kind == "custom"
