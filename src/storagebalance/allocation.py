"""Storage allocations: construction, validation, and structure queries.

An allocation assigns each of k objects a list of d pairwise-disjoint
service choices over n nodes.  A choice is a single node (replica) or a set
of r nodes that jointly recover the object (XOR).  An allocation is stored as
its portion table ``Allocation.portions``, one portion per (object, choice)
pair with the nodes that serve it; every validation, structure query and the
LP read that table.  The builders for the single-choice, clustering, cyclic,
symmetric block-design and cyclic-XOR families compute it by index
arithmetic, and the nested ``recovery_sets`` tuples are made from it only
when asked for.  ``to_matrices`` gives the routing matrix M (nodes x
portions) and the aggregation matrix T (objects x portions) that the LP is
built from, in compressed-column form: the table with each portion's nodes
sorted and each named once.  Neither is held dense: as two n x dn arrays
they would grow with n squared.

Objects and nodes are 0-based; all cyclic index arithmetic is modulo n.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import accumulate, chain, product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

KINDS = ("single_choice", "clustering", "cyclic", "block_design", "cyclic_xor", "custom")


class UnsupportedDesignError(Exception):
    """Requested design family or parameters are not constructible here."""


class Allocation:
    """A regular balanced d-choice storage allocation, stored as its portion
    table (see ``portions``).

    ``Allocation(n=.., k=.., d=.., r=.., kind=.., recovery_sets=..)`` makes
    one from nested tuples: ``recovery_sets[i]`` lists object i's choices in
    a fixed order, each a tuple of node ids (length 1 for replicas, a single
    primary plus length-r sets for XOR designs).  Such an allocation keeps
    its tuples, which word the error messages and hold ids beyond int64, and
    walks them into the table on first use.  The builders store the table
    alone, and ``recovery_sets`` is then made from it on first use.  Two
    allocations are equal when their fields and recovery sets are; an
    allocation is immutable, and hashes by its fields.
    """

    def __init__(self, n: int, k: int, d: int, r: int, kind: str,
                 recovery_sets: tuple[tuple[tuple[int, ...], ...], ...]):
        self._set_fields(n, k, d, r, kind, len(recovery_sets))
        vars(self)["recovery_sets"] = recovery_sets

    @classmethod
    def _of_layout(cls, n: int, d: int, r: int, kind: str, layout: np.ndarray) -> Allocation:
        """The allocation whose object i is served by the nodes in row i of
        the (k, 1 + r(d-1)) ``layout``: its first node alone, then d - 1 sets
        of r consecutive entries.  Portion c = i*d + j (j > 0) starts at
        entry i(1 + r(d-1)) + 1 + r(j-1), which is rc - (r-1) ceil(c/d)."""
        alloc = cls.__new__(cls)
        k = layout.shape[0]
        alloc._set_fields(n, k, d, r, kind, k)
        c = np.arange(k * d + 1)
        indptr = c if r == 1 else r * c - (r - 1) * -(-c // d)
        vars(alloc)["portions"] = (np.repeat(np.arange(k), d), indptr, layout.ravel())
        return alloc

    def _set_fields(self, n, k, d, r, kind, objects) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        _require_positive(n=n, k=k, d=d, r=r)
        vars(self).update(n=n, k=k, d=d, r=r, kind=kind, _objects=objects)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: allocations are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: allocations are immutable")

    def __repr__(self) -> str:
        return (f"Allocation(n={self.n}, k={self.k}, d={self.d}, r={self.r}, "
                f"kind={self.kind!r}, portions={self.num_portions})")

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._key == other._key and self.recovery_sets == other.recovery_sets

    def __hash__(self):
        return hash(self._key)

    @property
    def _key(self) -> tuple:
        return self.n, self.k, self.d, self.r, self.kind, self._objects

    @cached_property
    def recovery_sets(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """``recovery_sets[i]`` is object i's choices, each a tuple of node
        ids as plain ints.  Given to the constructor, or made from the
        portion table on first use, in one pass."""
        owner, indptr, nodes = self.portions
        named, bounds = nodes.tolist(), indptr.tolist()
        choices = [tuple(named[a:b]) for a, b in zip(bounds, bounds[1:])]
        ends = list(accumulate(np.bincount(owner, minlength=self._objects).tolist(), initial=0))
        return tuple(tuple(choices[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def portions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Portion table ``(owner, indptr, nodes)``, the stored form of the
        allocation.  Portions are object-major and choice-minor: portion c
        belongs to object owner[c] and is served by the nodes
        nodes[indptr[c]:indptr[c + 1]], as named (an id beyond int64 as -1).
        A builder stores the table; given ``recovery_sets`` are walked into
        it once, on first use.  Shared by every caller, which must not
        modify it."""
        sets = self.recovery_sets
        choices = list(chain.from_iterable(sets))
        owner = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.intp, len(sets)))
        indptr = np.cumsum([0, *map(len, choices)])
        named = list(chain.from_iterable(choices))
        try:
            nodes = np.array(named, np.int64)
        except OverflowError:  # out of range as well
            nodes = np.array([v if -1 <= v < self.n else -1 for v in named], np.int64)
        return owner, indptr, nodes

    @cached_property
    def incidence(self) -> csr_matrix:
        """Object-node incidence B (k x n, 0/1 CSR): B[i, v] = 1 iff node v is
        in one of object i's recovery sets, however often it is named there.
        Built once and shared by every caller, which must not modify it."""
        from scipy.sparse import csr_matrix

        rows, cols = _entries_in_range(self)
        B = csr_matrix((np.ones(cols.size, np.int32), (rows, cols)), shape=(self.k, self.n))
        B.sum_duplicates()
        B.data[:] = 1
        return B

    @cached_property
    def _pair_overlaps(self) -> tuple[int, np.ndarray]:
        """(r-gap radius, histogram over overlap sizes 0..n of the unordered
        object pairs), from one walk of ``_shared_pairs``: the pair queries
        both read it."""
        k, radius = self.k, 0
        hist = np.zeros(self.n + 1, dtype=np.int64)
        for i, j, c in _shared_pairs(self):
            radius = max(radius, int(np.minimum(j - i, k - (j - i)).max(initial=0)))
            hist += np.bincount(c, minlength=self.n + 1)
        hist[0] = k * (k - 1) // 2 - hist.sum()  # pairs sharing no node
        return radius, hist

    @property
    def num_portions(self) -> int:
        """Number of demand portions: one per (object, choice) pair, so the
        column count of the routing matrices."""
        return self.portions[0].size


def _entries_in_range(alloc: Allocation) -> tuple[np.ndarray, np.ndarray]:
    """Object and node of each portion-table entry, once every node id is
    checked to lie in [0, n): the one range check behind the incidence, the
    routing matrices and a loaded allocation."""
    owner, indptr, nodes = alloc.portions
    rows = np.repeat(owner, np.diff(indptr))
    bad = np.flatnonzero((nodes < 0) | (nodes >= alloc.n))
    if bad.size:
        i = rows[bad[0]]
        v = next(v for s in alloc.recovery_sets[i] for v in s if not 0 <= v < alloc.n)
        raise ValueError(f"object {i}: node {v} out of range [0, {alloc.n})")
    return rows, nodes


class AllocationMatrices(NamedTuple):
    """The routing matrix M (n nodes x portions) and aggregation matrix T
    (k objects x portions) of an allocation, in compressed-column form.

    Columns are demand portions in object-major, choice-minor order.
    Column c of T has its one 1 at row owner[c], the owning object.  Column
    c of M has its 1s at rows nodes[indptr[c]:indptr[c + 1]], ascending and
    each once, one per node serving that portion: replica columns have
    weight 1 and r-XOR recovery columns weight r.
    """

    n: int
    k: int
    owner: np.ndarray
    indptr: np.ndarray
    nodes: np.ndarray


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _require_positive(**params: int) -> None:
    """Raise ValueError naming the first of the parameters that is below 1."""
    for name, value in params.items():
        if value < 1:
            raise ValueError(f"{name} must be positive, got {value}")


def build_single_choice(n: int, m: int) -> Allocation:
    """k = n*m objects, node j hosting objects j*m .. j*m + m - 1, d = 1."""
    _require_positive(n=n, m=m)
    return Allocation._of_layout(n, 1, 1, "single_choice", (np.arange(n * m) // m)[:, None])


def build_clustering(n: int, d: int) -> Allocation:
    """Partition n nodes into n/d clusters; cluster j stores objects j*d..j*d+d-1.

    Every object is replicated on all d nodes of its cluster.  Requires d | n;
    k = n.
    """
    _require_positive(n=n, d=d)
    if n % d != 0:
        raise ValueError(f"d={d} must divide n={n}")
    layout = (np.arange(n) // d * d)[:, None] + np.arange(d)
    return Allocation._of_layout(n, d, 1, "clustering", layout)


def build_cyclic(n: int, d: int) -> Allocation:
    """Object i replicated on nodes i, i+1, ..., i+d-1 (mod n); k = n."""
    _require_positive(n=n, d=d)
    if d > n:
        raise ValueError(f"d={d} must be <= n={n}")
    layout = np.arange(n)[:, None] + np.arange(d)
    layout %= n
    return Allocation._of_layout(n, d, 1, "cyclic", layout)


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m, ascending, by about m trial divisions."""
    return [f for f in range(2, m + 1) if m % f == 0 and all(f % g for g in range(2, f))]


def perfect_difference_set(d: int) -> tuple[int, ...]:
    """First-lexicographic perfect difference set of size d modulo v = d*d - d + 1.

    A set D with every nonzero residue arising exactly once as a difference
    of two elements; one exists when q = d - 1 = p**e is a prime power.  It
    is built by Singer's construction (J. Singer, Trans. AMS 43, 1938): take
    a primitive polynomial of degree 3e over GF(p), so that x is a primitive
    element of GF(q**3) in the basis 1, x, ..., x**(3e - 1); the i in [0, v)
    for which the trace x**i + x**(iq) + x**(iq*q) is zero form D.  Only
    GF(p) arithmetic is needed.  The affine images (b - a)**-1 * (D - a)
    mod v, over the pairs a != b of D whose difference is a unit mod v, are
    the images of D that hold 0 and 1, and the smallest of them is returned.
    So the result does not depend on the polynomial found, and the tests pin
    it, for every d <= 10, to the first set in lexicographic order that a
    backtracking search over sets starting 0, 1 finds.

    The cost is polynomial in d: a walk over v powers of x, about q**3
    trial divisions to factor the group order, and about d**2 sorted images.
    It took 0.1 ms at d = 3, 0.5 ms at d = 5 and under 0.11 s for every d up
    to 48 on a 2-vCPU host.  d = 2 gives (0, 1); any other d raises
    ``UnsupportedDesignError`` at once unless d - 1 is a prime power.
    """
    if d == 2:
        return (0, 1)
    q = d - 1
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise UnsupportedDesignError(f"d-1={q} is not a prime power")
    p, n, rest = primes[0], 0, q
    while rest > 1:  # n = 3e, the degree of GF(q**3) over GF(p)
        rest, n = rest // p, n + 3
    v, order = q * q + q + 1, q**3 - 1
    cofactors = [order // prime for prime in _prime_factors(order)]

    def times_x(a):  # a * x, reduced by x**n = -(f[0] + f[1] x + .. + f[n-1] x**(n-1))
        return tuple((b - a[-1] * fj) % p for b, fj in zip((0,) + a[:-1], f))

    def mul(a, b):
        c = np.convolve(a, b).tolist()
        for t in range(2 * n - 2, n - 1, -1):
            for j, fj in enumerate(f):
                c[t - n + j] -= c[t] * fj
        return tuple(ci % p for ci in c[:n])

    def x_to(k):  # squaring from the top bit down
        out = one
        for bit in bin(k)[2:]:
            out = times_x(mul(out, out)) if bit == "1" else mul(out, out)
        return out

    one = (1,) + (0,) * (n - 1)
    for high in product(range(p), repeat=n):  # the constant term f[0] turns fastest
        f = high[::-1]
        if f[0] and x_to(order) == one and all(x_to(c) != one for c in cofactors):
            break  # x has order p**n - 1: f is primitive
    powers = list(accumulate(range(v - 1), lambda a, _: times_x(a), initial=one))  # x**i, i < v
    frobenius = np.array(powers[::q][:n]).T  # y -> y**q: column j is x**(jq), and jq < v
    trace = (np.eye(n, dtype=np.int64) + frobenius + frobenius @ frobenius) % p
    base = np.flatnonzero(~(np.array(powers) @ trace.T % p).any(axis=1)).tolist()
    return min(
        tuple(sorted((y - a) * pow(b - a, -1, v) % v for y in base))
        for a in base for b in base if a != b and math.gcd(b - a, v) == 1
    )


def build_block_design(d: int) -> Allocation:
    """Symmetric block design with every object pair sharing exactly one node.

    Exists when d - 1 is a prime power; n = k = d*d - d + 1, and node j
    hosts objects D + j mod n, for D the perfect difference set that
    ``perfect_difference_set`` builds by Singer's construction in time
    polynomial in d (under 0.11 s for every d up to 48).  For d <= 10 the
    tests pin D to the first set that a backtracking search finds, so these
    designs are those the search gave.  Other orders are rejected.
    """
    if d < 3:
        raise UnsupportedDesignError("block designs are built for d >= 3")
    base = perfect_difference_set(d)
    v = d * d - d + 1
    layout = (np.arange(v)[:, None] - np.array(base)) % v
    layout.sort(axis=1)
    return Allocation._of_layout(v, d, 1, "block_design", layout)


def build_cyclic_xor(n: int, d: int, r: int) -> Allocation:
    """Cyclic XOR design: primary {i} plus d-1 consecutive disjoint r-sets.

    Object i's recovery sets are {i+1..i+r}, {i+r+1..i+2r}, ..., all mod n.
    The matching content layout (one XOR copy per recovery set, stored on the
    set's last node together with exact copies on the others) exists exactly
    when n >= 1 + r(d-1), which also makes the choices pairwise disjoint.
    """
    _require_positive(n=n, d=d)
    if r < 2:
        raise ValueError("r must be >= 2 for XOR designs")
    if n < 1 + r * (d - 1):
        raise ValueError(f"need n >= 1 + r(d-1) = {1 + r * (d - 1)}, got n={n}")
    layout = np.arange(n)[:, None] + np.arange(1 + r * (d - 1))  # i .. i + r(d-1)
    layout %= n
    return Allocation._of_layout(n, d, r, "cyclic_xor", layout)


# ---------------------------------------------------------------------------
# Validation and structure queries
# ---------------------------------------------------------------------------


def validate_regular_balanced(alloc: Allocation) -> list[str]:
    """Return a list of violations of the regular balanced d-choice property.

    Checks: d recovery sets per object, pairwise disjoint, node ids in range,
    legal set sizes (1 for replicas; 1 or r for XOR), no duplicate object per
    node, and equal per-node participation counts.  An empty list means the
    allocation is valid.  The portion table flags the objects that break a
    check; only those are walked, to word their messages.
    """
    owner, indptr, nodes = alloc.portions
    sizes = np.diff(indptr)
    rows = np.repeat(owner, sizes)
    ok = (nodes >= 0) & (nodes < alloc.n)
    pairs = np.sort(rows[ok] * alloc.n + nodes[ok])  # (object, node) pairs named
    flagged = np.unique(np.concatenate([
        np.flatnonzero(np.bincount(owner, minlength=alloc._objects) != alloc.d),
        owner[(sizes != 1) & (sizes != alloc.r)],
        rows[~ok],
        pairs[1:][pairs[1:] == pairs[:-1]] // alloc.n,
    ]))
    out: list[str] = []
    for i in flagged.tolist():
        obj_sets = alloc.recovery_sets[i]
        if len(obj_sets) != alloc.d:
            out.append(f"object {i}: has {len(obj_sets)} recovery sets, expected {alloc.d}")
        seen: set[int] = set()
        named: set[int] = set()
        for s in obj_sets:
            if alloc.r == 1 and len(s) != 1:
                out.append(f"object {i}: replica choice {s} is not a single node")
            if alloc.r > 1 and len(s) not in (1, alloc.r):
                out.append(f"object {i}: choice {s} has size {len(s)}, expected 1 or {alloc.r}")
            for v in s:
                if not 0 <= v < alloc.n:
                    out.append(f"object {i}: node {v} out of range [0, {alloc.n})")
                    continue
                if v in named:
                    out.append(f"node {v}: object {i} appears in more than one of its choices")
                named.add(v)
            if seen & set(s):
                out.append(f"object {i}: recovery sets overlap at {sorted(seen & set(s))}")
            seen |= set(s)
    node_count = np.bincount(nodes[ok], minlength=alloc.n)
    lo, hi = int(node_count.min()), int(node_count.max())
    if lo != hi:
        bad = np.flatnonzero((node_count == lo) | (node_count == hi))[:4].tolist()
        out.append(
            f"unbalanced: per-node participation ranges {lo}..{hi} (e.g. nodes {bad})"
        )
    return out


#: Most entries of B @ B.T that ``_shared_pairs`` holds at once.
_PAIR_BLOCK = 1 << 22


def _shared_pairs(alloc: Allocation):
    """Yield (i, j, |C_i & C_j|) arrays over pairs i < j with a shared node:
    the entries right of the diagonal of B @ B.T, in the row blocks of
    ``_row_blocks``."""
    B = alloc.incidence
    Bt = B.T.tocsr()
    for lo, hi in _row_blocks(B, Bt):
        g = B[lo:hi] @ Bt
        rows = np.repeat(np.arange(lo, hi), np.diff(g.indptr))
        upper = g.indices > rows
        yield rows[upper], g.indices[upper], g.data[upper]


def _row_blocks(B, Bt):
    """Yield (lo, hi) row blocks of B @ B.T, given B and B.T as CSR.  Row i
    takes one product per object on each node of C_i; a block holds at most
    ``_PAIR_BLOCK`` products unless it is a single row."""
    work = np.cumsum(B @ np.diff(Bt.indptr).astype(np.int64))
    lo = 0
    while lo < B.shape[0]:
        done = work[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(work, done + _PAIR_BLOCK, side="right")))
        yield lo, hi
        lo = hi


def overlap_sum(alloc: Allocation) -> int:
    """Sum over ordered object pairs of |C_i intersect C_j| (replicas only).

    For every regular balanced d-choice replica allocation this equals
    (d-1) * d * k.
    """
    if alloc.r != 1:
        raise UnsupportedDesignError("overlap_sum is defined for replica allocations")
    deg = np.bincount(alloc.incidence.indices, minlength=alloc.n)
    return int((deg * (deg - 1)).sum())


def node_expansion(alloc: Allocation, objects: Iterable[int]) -> int:
    """Size of the union of choice nodes over the given object set."""
    objs = set(objects)
    if any(not 0 <= i < alloc.k for i in objs):
        raise ValueError("object id out of range")
    return int(np.count_nonzero(alloc.incidence[sorted(objs)].getnnz(axis=0)))


def r_gap_radius(alloc: Allocation) -> int:
    """Smallest r for which the allocation is an r-gap design."""
    if alloc.r != 1:
        raise UnsupportedDesignError("r-gap is defined for replica allocations")
    return alloc._pair_overlaps[0]


def hall_check(alloc: Allocation) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check node_expansion(S) >= |S| for every object set S (Hall's condition).

    Exact at every k: by Hall's theorem the condition holds iff a maximum
    matching of the incidence B covers every object.  Returns (True, None)
    or (False, witness), where the witness is the smallest object set with
    the largest deficiency |S| - node_expansion(S), sorted.  It is the set of
    objects reached from the unmatched ones by alternating paths (Dulmage-
    Mendelsohn), so it does not depend on which maximum matching is found.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_bipartite_matching

    B, k = alloc.incidence, alloc.k
    node_of = maximum_bipartite_matching(B, perm_type="column")
    unmatched = np.flatnonzero(node_of < 0)
    if not unmatched.size:
        return True, None
    matched = np.flatnonzero(node_of >= 0)
    object_of = np.full(alloc.n, -1)
    object_of[node_of[matched]] = matched
    # object i -> the object matched to each of i's nodes; source k -> unmatched
    src = np.repeat(np.arange(k), np.diff(B.indptr))
    dst = object_of[B.indices]
    keep = dst >= 0
    src = np.concatenate([src[keep], np.full(unmatched.size, k)])
    dst = np.concatenate([dst[keep], unmatched])
    G = csr_matrix((np.ones(src.size, np.int8), (src, dst)), shape=(k + 1, k + 1))
    reached = breadth_first_order(G, k, return_predecessors=False)[1:]
    return False, tuple(np.sort(reached).tolist())


def pairwise_overlap_histogram(alloc: Allocation) -> dict[int, int]:
    """Histogram {overlap size: number of unordered object pairs}."""
    if alloc.r != 1:
        raise UnsupportedDesignError("overlaps are defined for replica allocations")
    hist = alloc._pair_overlaps[1]
    sizes = np.flatnonzero(hist)
    return dict(zip(sizes.tolist(), hist[sizes].tolist()))


# ---------------------------------------------------------------------------
# Matrices and serialization
# ---------------------------------------------------------------------------


def to_matrices(alloc: Allocation) -> AllocationMatrices:
    """The routing matrices of an allocation, the table its LP is built
    from: the portion table with its node ids checked to lie in [0, n), and
    each portion's nodes sorted with repeats collapsed, so a node named
    twice in one choice loads it once.  Its size is that of the table."""
    _entries_in_range(alloc)
    owner, indptr, nodes = alloc.portions
    cols = np.repeat(np.arange(owner.size), np.diff(indptr))
    cols, nodes = np.divmod(np.unique(cols * alloc.n + nodes), alloc.n)
    indptr = np.searchsorted(cols, np.arange(owner.size + 1))
    return AllocationMatrices(alloc.n, alloc.k, owner, indptr, nodes)


def allocation_to_dict(alloc: Allocation) -> dict:
    return {
        "n": alloc.n,
        "k": alloc.k,
        "d": alloc.d,
        "r": alloc.r,
        "kind": alloc.kind,
        "recovery_sets": [[list(s) for s in obj] for obj in alloc.recovery_sets],
    }


def _json_int(value) -> int:
    if type(value) is not int:  # a JSON integer: not a bool, float or string
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def allocation_from_dict(data: dict) -> Allocation:
    """The allocation a JSON dict describes.  A family kind is kept only if
    its builder, run on the dict's n, d, r and k // n, gives these very
    recovery sets; anything else is ``custom``, so no solver routes a file
    by its label alone."""
    try:
        sets = tuple(
            tuple(tuple(_json_int(v) for v in s) for s in obj) for obj in data["recovery_sets"]
        )
        alloc = Allocation(
            n=_json_int(data["n"]),
            k=_json_int(data["k"]),
            d=_json_int(data["d"]),
            r=_json_int(data["r"]),
            kind=str(data["kind"]),
            recovery_sets=sets,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed allocation data: {exc}") from exc
    if len(alloc.recovery_sets) != alloc.k:
        raise ValueError(
            f"recovery_sets has {len(alloc.recovery_sets)} objects, expected k={alloc.k}"
        )
    _entries_in_range(alloc)
    if alloc.kind != "custom" and not _built_by_family(alloc):
        alloc = Allocation(n=alloc.n, k=alloc.k, d=alloc.d, r=alloc.r, kind="custom",
                           recovery_sets=sets)
    return alloc


def _built_by_family(alloc: Allocation) -> bool:
    from .loadsolver import FAMILIES  # loadsolver imports this module

    if alloc.kind == "block_design" and alloc.n != alloc.d * alloc.d - alloc.d + 1:
        return False  # no other n matches; building at the file's d costs O(d**3), whatever n is
    try:
        built = FAMILIES[alloc.kind].build_with(n=alloc.n, d=alloc.d, r=alloc.r,
                                                m=alloc.k // alloc.n)
    except (UnsupportedDesignError, ValueError):
        return False
    return built == alloc


def save_allocation(alloc: Allocation, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(allocation_to_dict(alloc), fh, indent=2)
        fh.write("\n")


def load_allocation(path: str) -> Allocation:
    with open(path) as fh:
        return allocation_from_dict(json.load(fh))

