"""Shared helpers for the test suite."""

import signal
from collections import Counter
from contextlib import contextmanager
from itertools import combinations

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
from storagebalance.spacings import prefix_sums, spacing_matrix, window_max_pair


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
    k = m.shape[1]
    out = window_max_pair(prefix_sums(m, d - 1), k, d)[1 if circle else 0]
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
    cols = reference_num_portions(alloc)
    M = np.zeros((alloc.n, cols), dtype=np.int8)
    T = np.zeros((alloc.k, cols), dtype=np.int8)
    c = 0
    for i, obj_sets in enumerate(alloc.recovery_sets):
        for s in obj_sets:
            for v in s:
                M[v, c] = 1
            T[i, c] = 1
            c += 1
    return AllocationMatrices(M=M, T=T)


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
