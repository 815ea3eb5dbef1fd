"""Shared helpers for the test suite."""

import signal
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from storagebalance.allocation import (
    Allocation,
    AllocationMatrices,
    build_clustering,
    build_cyclic,
    perfect_difference_set,
)
from storagebalance.metrics import estimate_metrics, t_star_series
from storagebalance.spacings import WindowMaxima, spacing_matrix


def per_trial_spacings(k: int, sigma: float, seed: int, index: int) -> np.ndarray:
    """Reference sampler: k spacings summing to sigma from trial ``index``'s
    own Philox generator, keyed ``(index mod 2^64, seed)`` and built afresh,
    which ``spacing_matrix`` row ``index`` must equal."""
    key = np.array([index % 2**64, seed], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    e = gen.standard_exponential(k)
    return e * (sigma / e.sum())


@contextmanager
def time_limit(seconds: float):
    """Fail the test once its body has run for ``seconds`` of wall time, so a
    call that would run for minutes fails instead of hanging the suite.  Uses
    SIGALRM: main thread, POSIX only."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # the traceback through a deep recursion is no help, and pytest can
        # fail to render it
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spacing_batches(k: int, trials: int, seed: int):
    """Yield ``(start, rows)`` over ``trials`` unit-sum demand rows, in blocks
    of 4096 rows.  Row i is substream (seed, i) whatever the blocks, so a
    test draws the same rows as one ``spacing_matrix`` call."""
    for start in range(0, trials, 4096):
        yield start, spacing_matrix(k, 1.0, seed, min(4096, trials - start), start_index=start)


def estimate_alone(alloc: Allocation, sigma: float, trials: int, master_seed: int):
    """``estimate_metrics`` of one allocation solved by its own
    ``t_star_series`` call."""
    t_stars = t_star_series([alloc], trials, master_seed)[0]
    return estimate_metrics(alloc, sigma, trials, master_seed, t_stars)


def window_maxima(a, d: int, circle: bool):
    """Per-row maximum sum of d consecutive entries of a (k,) or (T, k) array,
    on the line or (wrapping around) on the circle."""
    m = np.atleast_2d(np.asarray(a, dtype=np.float64))
    windows = WindowMaxima(*m.shape, [d])
    windows.entries[:] = m
    [(_, line, circ)] = windows.max_pairs(len(m))
    out = circ if circle else line
    return out if np.ndim(a) > 1 else out[0]


def is_fano_plane(blocks) -> bool:
    """Whether ``blocks`` form a 2-(7, 3, 1) design: seven blocks of three
    points over seven points, every pair of points in exactly one block.
    That design is unique up to relabeling (the Fano plane), so two block
    systems that both pass are isomorphic."""
    blocks = [frozenset(b) for b in blocks]
    points = frozenset().union(*blocks)
    pairs = Counter(pair for b in blocks for pair in combinations(sorted(b), 2))
    return (
        len(points) == len(blocks) == 7
        and all(len(b) == 3 for b in blocks)
        and len(pairs) == 21
        and set(pairs.values()) == {1}
    )


def random_regular_allocation(n: int, d: int, rng: np.random.Generator) -> Allocation:
    """Random regular balanced replica design from disjoint permutation layers."""
    while True:
        perms = [rng.permutation(n)]
        ok = True
        for _ in range(1, d):
            for _ in range(60):
                p = rng.permutation(n)
                if all(p[i] not in {q[i] for q in perms} for i in range(n)):
                    perms.append(p)
                    break
            else:
                ok = False
                break
        if ok:
            sets = tuple(tuple((int(p[i]),) for p in perms) for i in range(n))
            return Allocation(n=n, k=n, d=d, r=1, kind="custom", recovery_sets=sets)


def replica_instance(rng: np.random.Generator, mode: int) -> tuple[Allocation, np.ndarray]:
    """A small replica design and a demand row for the solver cross-checks:
    mode 0 draws a random regular design (n <= 12, d <= 4), 1 a cyclic and
    2 a clustering design (n <= 12), each with exponential demands scaled
    to sum between 0.3 n and 1.5 n."""
    if mode == 0:
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, min(n, 4) + 1))
        alloc = random_regular_allocation(n, d, rng)
    elif mode == 1:
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, n + 1))
        alloc = build_cyclic(n, d)
    else:
        d = int(rng.integers(1, 5))
        n = d * int(rng.integers(1, 12 // d + 1))
        alloc = build_clustering(n, d)
    e = rng.standard_exponential(alloc.k)
    return alloc, e / e.sum() * float(rng.uniform(0.3, 1.5)) * alloc.n


def crowded_allocation() -> Allocation:
    """k = n = 200: objects 0-3 all on nodes {0, 1, 2}, the other 196 cyclic
    (d = 3) on nodes 3-199.  Only sets holding all of objects 0-3 violate
    Hall's condition, so a random subset almost never shows the violation."""
    crowded = (((0,), (1,), (2,)),) * 4
    cyclic = tuple(tuple((3 + (i + j) % 197,) for j in range(3)) for i in range(196))
    return Allocation(n=200, k=200, d=3, r=1, kind="custom", recovery_sets=crowded + cyclic)


# Reference builders: each family's recovery sets made as nested tuples, one
# object at a time, to check the builders' portion tables against.


def reference_single_choice(n: int, m: int) -> Allocation:
    sets = tuple(((i // m,),) for i in range(n * m))
    return Allocation(n=n, k=n * m, d=1, r=1, kind="single_choice", recovery_sets=sets)


def reference_clustering(n: int, d: int) -> Allocation:
    sets = tuple(tuple((i // d * d + j,) for j in range(d)) for i in range(n))
    return Allocation(n=n, k=n, d=d, r=1, kind="clustering", recovery_sets=sets)


def reference_cyclic(n: int, d: int) -> Allocation:
    sets = tuple(tuple(((i + j) % n,) for j in range(d)) for i in range(n))
    return Allocation(n=n, k=n, d=d, r=1, kind="cyclic", recovery_sets=sets)


def reference_block_design(d: int) -> Allocation:
    base, v = perfect_difference_set(d), d * d - d + 1
    sets = tuple(tuple((h,) for h in sorted((i - x) % v for x in base)) for i in range(v))
    return Allocation(n=v, k=v, d=d, r=1, kind="block_design", recovery_sets=sets)


def reference_cyclic_xor(n: int, d: int, r: int) -> Allocation:
    sets = tuple(
        ((i,),) + tuple(tuple((i + 1 + j * r + t) % n for t in range(r)) for j in range(d - 1))
        for i in range(n)
    )
    return Allocation(n=n, k=n, d=d, r=r, kind="cyclic_xor", recovery_sets=sets)


#: The reference builder of each family, by kind.
REFERENCE_BUILDERS = {
    "single_choice": reference_single_choice,
    "clustering": reference_clustering,
    "cyclic": reference_cyclic,
    "block_design": reference_block_design,
    "cyclic_xor": reference_cyclic_xor,
}


# Reference implementations: per-object walks over ``recovery_sets``, kept to
# check the readers of ``Allocation.portions`` against.


def reference_portions(alloc: Allocation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The portion table of ``alloc.recovery_sets`` (all ids within int64),
    built one choice at a time."""
    owner, indptr, nodes = [], [0], []
    for i, obj_sets in enumerate(alloc.recovery_sets):
        for s in obj_sets:
            owner.append(i)
            nodes.extend(s)
            indptr.append(len(nodes))
    return (np.array(owner, np.intp), np.array(indptr, np.int64), np.array(nodes, np.int64))


def reference_incidence(alloc: Allocation) -> csr_matrix:
    rows = [i for i, obj in enumerate(alloc.recovery_sets) for s in obj for _ in s]
    cols = [v for obj in alloc.recovery_sets for s in obj for v in s]
    B = csr_matrix((np.ones(len(cols), np.int32), (rows, cols)), shape=(alloc.k, alloc.n))
    B.sum_duplicates()
    B.data[:] = 1
    return B


def reference_num_portions(alloc: Allocation) -> int:
    return sum(len(obj_sets) for obj_sets in alloc.recovery_sets)


def reference_to_matrices(alloc: Allocation) -> AllocationMatrices:
    """The compressed routing matrices of ``alloc.recovery_sets``, built one
    choice at a time, each choice's nodes sorted and each named once."""
    owner, indptr, nodes = [], [0], []
    for i, obj_sets in enumerate(alloc.recovery_sets):
        for s in obj_sets:
            owner.append(i)
            nodes.extend(sorted(set(s)))
            indptr.append(len(nodes))
    return AllocationMatrices(alloc.n, alloc.k, np.array(owner, np.intp),
                              np.array(indptr, np.intp), np.array(nodes, np.int64))


def dense(matrices: AllocationMatrices) -> tuple[np.ndarray, np.ndarray]:
    """The dense int8 routing matrix M (n x portions) and aggregation matrix
    T (k x portions) of compressed ``matrices``; an entry named twice in one
    column shows as a 2."""
    n, k, owner, indptr, nodes = matrices
    cols = np.arange(owner.size)
    M = np.zeros((n, owner.size), dtype=np.int8)
    np.add.at(M, (nodes, np.repeat(cols, np.diff(indptr))), 1)
    T = np.zeros((k, owner.size), dtype=np.int8)
    np.add.at(T, (owner, cols), 1)
    return M, T


def reference_validate(alloc: Allocation) -> list[str]:
    out: list[str] = []
    node_count = [0] * alloc.n
    per_node_objects: list[set[int]] = [set() for _ in range(alloc.n)]
    for i, obj_sets in enumerate(alloc.recovery_sets):
        if len(obj_sets) != alloc.d:
            out.append(f"object {i}: has {len(obj_sets)} recovery sets, expected {alloc.d}")
        seen: set[int] = set()
        for s in obj_sets:
            if alloc.r == 1 and len(s) != 1:
                out.append(f"object {i}: replica choice {s} is not a single node")
            if alloc.r > 1 and len(s) not in (1, alloc.r):
                out.append(f"object {i}: choice {s} has size {len(s)}, expected 1 or {alloc.r}")
            for v in s:
                if not 0 <= v < alloc.n:
                    out.append(f"object {i}: node {v} out of range [0, {alloc.n})")
                    continue
                node_count[v] += 1
                if i in per_node_objects[v]:
                    out.append(f"node {v}: object {i} appears in more than one of its choices")
                per_node_objects[v].add(i)
            if seen & set(s):
                out.append(f"object {i}: recovery sets overlap at {sorted(seen & set(s))}")
            seen |= set(s)
    if len(set(node_count)) > 1:
        lo, hi = min(node_count), max(node_count)
        bad = [v for v, c in enumerate(node_count) if c in (lo, hi)][:4]
        out.append(
            f"unbalanced: per-node participation ranges {lo}..{hi} (e.g. nodes {bad})"
        )
    return out


# Exact LP certificates: the epigraph LP of ``loadsolver._EpigraphLP``
# re-solved over rationals from the basis HiGHS ended on.


class NotCertified(Exception):
    """HiGHS's final basis does not prove its row optimal in exact arithmetic."""


def solve_exact(rows: list[dict[int, int]], rhs: list[Fraction]) -> dict[int, Fraction]:
    """The solution u of the square sparse system sum_j rows[i][j] u_j =
    rhs[i], by Gauss-Jordan elimination over ``Fraction``s.  Each step
    pivots on the shortest remaining row, at its column held by the fewest
    rows, so the sparse network rows fill in little.  Raises NotCertified
    if the system is singular."""
    rows = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    rhs = list(rhs)
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    if len(holders) != len(rows):
        raise NotCertified(f"{len(rows)} equations in {len(holders)} unknowns")
    pending, pivots = set(range(len(rows))), []
    while pending:
        i = min(pending, key=lambda i: len(rows[i]))
        pending.discard(i)
        if not rows[i]:
            raise NotCertified("the basis matrix is singular")
        j = min(rows[i], key=lambda j: len(holders[j]))
        pivot = rows[i]
        for h in list(holders[j] - {i}):
            factor = rows[h][j] / pivot[j]
            for col, value in pivot.items():
                new = rows[h].get(col, 0) - factor * value
                if new:
                    rows[h][col] = new
                    holders[col].add(h)
                else:
                    rows[h].pop(col, None)
                    holders[col].discard(h)
            rhs[h] -= factor * rhs[i]
        pivots.append((i, j))
    return {j: rhs[i] / rows[i][j] for i, j in pivots}


def certify_lp_row(matrices: AllocationMatrices, rho, basis) -> Fraction:
    """The exact optimum t* of the epigraph LP of ``matrices`` at demand row
    ``rho`` (floats, read exactly), proven from ``basis``, the
    ``_Highs.getBasis()`` of a model that has just solved that row.

    Columns are the portions, then t; rows are the n node rows
    M x - t <= 0, then the k object rows T x = rho.  The basic columns are
    solved from the rows the basis holds at a bound (the nonbasic rows), and
    the duals y of those rows from the transposed system with cost 1 on t.
    The basis proves its t optimal when x >= 0, every basic node row is at
    most 0 and every basic object row meets rho, y <= 0 on the node rows,
    every reduced cost is >= 0, and rho . y = t (which the two solves
    imply, so it guards them).  Raises NotCertified naming the first check
    that fails."""
    n, k, owner, indptr, nodes = matrices
    rho = [Fraction(float(v)) for v in rho]
    num_portions = owner.size
    columns = []  # column c as {row: coefficient}
    for c in range(num_portions):
        column = {int(v): 1 for v in nodes[indptr[c]:indptr[c + 1]]}
        column[n + int(owner[c])] = 1
        columns.append(column)
    columns.append({i: -1 for i in range(n)})
    cost = [0] * num_portions + [1]
    if not basis.valid:
        raise NotCertified("HiGHS holds no valid basis")
    basic = [c for c, s in enumerate(basis.col_status) if s.name == "kBasic"]
    if any(s.name not in ("kBasic", "kLower") for s in basis.col_status):
        raise NotCertified("a nonbasic column is not at its lower bound 0")
    active = [i for i, s in enumerate(basis.row_status) if s.name != "kBasic"]
    if any(basis.row_status[i].name != "kUpper" for i in active if i < n):
        raise NotCertified("a nonbasic node row is not at its upper bound 0")
    bound = [Fraction(0)] * n + rho
    x = solve_exact(
        [{c: columns[c][i] for c in basic if i in columns[c]} for i in active],
        [bound[i] for i in active],
    )
    y = solve_exact(
        [{i: columns[c][i] for i in active if i in columns[c]} for c in basic],
        [Fraction(cost[c]) for c in basic],
    )
    if min(x.values(), default=0) < 0:
        raise NotCertified("a basic column is negative")
    activity = [Fraction(0)] * (n + k)
    for c, value in x.items():
        for i, a in columns[c].items():
            activity[i] += a * value
    if any(activity[i] > 0 for i in range(n)) or activity[n:] != rho:
        raise NotCertified("a row the basis leaves free is violated")
    if any(y[i] > 0 for i in active if i < n):
        raise NotCertified("a node row's dual is positive")
    for c, column in enumerate(columns):
        if cost[c] - sum(a * y.get(i, 0) for i, a in column.items()) < 0:
            raise NotCertified(f"column {c} has a negative reduced cost")
    t = x.get(num_portions, Fraction(0))
    if sum(rho[j] * y.get(n + j, 0) for j in range(k)) != t:
        raise NotCertified("the dual value does not meet the primal value")
    return t


# Exact closed forms: t* of the cyclic, clustering and single-choice designs
# over rationals, from the float demands read exactly.


def _exact_integers(row) -> tuple[list[int], int]:
    """The float entries of ``row`` exactly, as integers over one common
    power-of-two denominator."""
    fracs = [Fraction(float(x)) for x in row]
    denom = max(f.denominator for f in fracs)
    return [f.numerator * (denom // f.denominator) for f in fracs], denom


def exact_t_star_cyclic(n: int, d_values, row) -> list[Fraction]:
    """t* of the cyclic designs (n, d) at one demand row, one per d,
    exactly: max(sigma / n, max_w W_w / (w + d - 1)) over w = 1 .. n - d,
    where W_w is the largest sum of w circularly consecutive demands, and
    sigma / n at d >= n."""
    ints, denom = _exact_integers(row)
    prefix = list(accumulate(ints + ints, initial=0))
    windows = [max(prefix[i + w] - prefix[i] for i in range(n)) for w in range(n)]
    total = Fraction(sum(ints), n * denom)
    return [
        max([total] + [Fraction(windows[w], (w + d - 1) * denom) for w in range(1, n - d + 1)])
        for d in d_values
    ]


def exact_window_maxima(row, d: int) -> tuple[Fraction, Fraction]:
    """The largest sum of d consecutive entries of one float row, on the
    line and on the circle, exactly."""
    ints, denom = _exact_integers(row)
    k = len(ints)
    prefix = list(accumulate(ints + ints[: d - 1], initial=0))
    sums = [prefix[i + d] - prefix[i] for i in range(k)]
    return Fraction(max(sums[: k - d + 1]), denom), Fraction(max(sums), denom)


def exact_t_star_clusters(alloc: Allocation, row) -> Fraction:
    """t* at one demand row, exactly, of a design whose objects' node sets
    partition the nodes (clustering, and single choice with d = 1): the
    largest sum of the demands one cluster serves, over its node count d."""
    ints, denom = _exact_integers(row)
    sums = defaultdict(int)
    for i, sets in enumerate(alloc.recovery_sets):
        sums[frozenset(v for s in sets for v in s)] += ints[i]
    assert sorted(v for cluster in sums for v in cluster) == list(range(alloc.n))
    return max(Fraction(total, len(cluster) * denom) for cluster, total in sums.items())
