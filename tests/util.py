"""Shared helpers for the test suite."""

import numpy as np

from storagebalance.allocation import Allocation


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


def crowded_allocation() -> Allocation:
    """k = n = 200: objects 0-3 all on nodes {0, 1, 2}, the other 196 cyclic
    (d = 3) on nodes 3-199.  Only sets holding all of objects 0-3 violate
    Hall's condition, so a random subset almost never shows the violation."""
    crowded = (((0,), (1,), (2,)),) * 4
    cyclic = tuple(tuple((3 + (i + j) % 197,) for j in range(3)) for i in range(196))
    return Allocation(n=200, k=200, d=3, r=1, kind="custom", recovery_sets=crowded + cyclic)
