"""Uniform spacings: the demand model, windowed maxima, and asymptotic predictors.

Demand vectors with a fixed cumulative load sigma are distributed like k
uniform spacings scaled to [0, sigma].  The windowed maxima of those spacings
(on the line and on the circle) drive both the exact stability conditions and
the Gumbel-type limit laws.  Each is taken from direct sums of the entries,
never from prefix differences: over (T, k) batches of demand rows by doubling
(``WindowMaxima``), which the conditions and the limit checks use, and as
running sums in the cyclic kernel, which steps through every window size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Euler-Mascheroni constant (mean of the standard Gumbel distribution).
EULER_GAMMA = 0.57721566490153286

REGIME_SINGLE = "fixed_m_single_choice"
REGIME_SMALL_D = "small_d"
REGIME_LOG_ORDER_D = "log_order_d"


@functools.cache
def _philox_seed() -> np.random.SeedSequence:
    """Seed of the one Philox that each ``spacing_matrix`` call re-keys.

    The re-key overwrites the seeded state before the first draw, so no
    output bit depends on it.  One constant seed, built on first use (so
    that importing the package loads no ``numpy.random``), spares each call
    the ``os.urandom`` entropy and the hashing of a fresh ``SeedSequence``.
    """
    return np.random.SeedSequence(0)


def spacing_matrix(
    k: int,
    sigma: float,
    master_seed: int,
    trials: int,
    start_index: int = 0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Stack ``trials`` independent samples into a (trials, k) matrix.

    This is the one definition of the demand stream.  Row i is k unit-rate
    exponentials drawn from a Philox generator keyed
    ``((start_index + i) mod 2^64, master_seed)``, scaled to sum to sigma
    (the Gamma representation of uniform spacings, so sigma is a pure scale
    factor).  ``master_seed`` must lie in [0, 2^64), one 64-bit word of the
    key.  One Philox bit generator is re-keyed for each row (counter 0,
    buffer empty: the state of a freshly keyed Philox), which reproduces
    each per-trial substream without building a generator per row.  The
    state holds its counter, key and buffer words as plain Python ints in
    lists: the ``state`` setter reads them by index, which costs about half
    of what reading uint64 array items does.  Every call draws afresh.

    ``out``, if given, is a float64 (trials, k) array whose rows are each
    contiguous, such as the first k columns of a wider buffer; the rows are
    drawn into it, with the bits of the allocating call, and it is returned.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be in [0, 2^64), got {master_seed}")
    if start_index < 0:
        raise ValueError("start_index must be non-negative")
    if out is None:
        out = np.empty((trials, k))
    elif out.shape != (trials, k) or out.dtype != np.float64 or (
        k > 1 and out.strides[1] != out.itemsize
    ):
        raise ValueError(f"out must be a float64 ({trials}, {k}) array with contiguous rows")
    bitgen = np.random.Philox(_philox_seed())
    gen = np.random.Generator(bitgen)
    key = [0, master_seed]
    fresh = {**bitgen.state, "state": {"counter": [0] * 4, "key": key}, "buffer": [0] * 4}
    for i, row in enumerate(out, start_index):
        key[0] = i % 2**64
        bitgen.state = fresh
        gen.standard_exponential(out=row)
    out *= (sigma / out.sum(axis=1))[:, None]
    return out


# ---------------------------------------------------------------------------
# Windowed maxima
# ---------------------------------------------------------------------------


class WindowMaxima:
    """Line and circle maxima of the sums of d consecutive entries of each
    row, for every d of ``ds``, taken from direct sums of the entries.

    Made once for up to ``rows`` rows of k entries.  A caller writes its
    rows into ``entries``, the first k columns of a (rows, k + D - 1) buffer
    with D the largest d (``spacing_matrix(out=...)`` draws straight into
    it); ``max_pairs`` continues each row cyclically by D - 1 entries, so
    that every circular window is a plain slice.  The sums are built by
    doubling: a sum of 2w entries is a sum of w entries plus the same
    shifted by w.  The power sums of 1, 2, 4, ... entries are shared by all
    d, and each d adds its binary pieces, smallest first, into one reused
    accumulator, so a d costs popcount(d) - 1 adds over the shared
    floor(log2 D).  The buffers hold floor(log2 D) + 2 arrays of at most
    rows x (k + D - 1) numbers.

    Each window sum is a tree of depth h = ceil(log2 d) over its d entries,
    in an order fixed by d alone, so its bits depend neither on the other d
    values nor on how rows are blocked.  For non-negative entries it lies
    within gamma_h = h u / (1 - h u), u = 2^-53, relative of the exact sum
    (Higham, SIAM J. Sci. Comput. 14, 1993), and so does each maximum; a d
    of 1 is exact.  The line windows are the first k - d + 1 circular
    windows, so the circle maximum is the larger of the line maximum and
    the d - 1 wrapped windows' maximum, and circle >= line holds exactly.
    """

    def __init__(self, rows: int, k: int, ds):
        self.k = k
        self.ds = sorted(set(ds))
        if not self.ds or self.ds[0] < 1 or self.ds[-1] > k:
            raise ValueError(f"window sizes must be in [1, {k}], got {ds}")
        width = k + self.ds[-1] - 1
        # _powers[j][:, i] is the sum of the 2^j entries from column i
        self._powers = [np.empty((rows, width))]
        while 2 ** len(self._powers) <= self.ds[-1]:
            self._powers.append(np.empty((rows, width - 2 ** len(self._powers) + 1)))
        self._acc = np.empty((rows, k))
        self.entries = self._powers[0][:, :k]

    def _sums(self, n: int, d: int) -> np.ndarray:
        """The (n, k) sums of the d entries from each column 0..k-1."""
        offsets = [(j, d & (2**j - 1)) for j in range(d.bit_length()) if d >> j & 1]
        pieces = [self._powers[j][:n, o : o + self.k] for j, o in offsets]
        if len(pieces) == 1:
            return pieces[0]
        acc = self._acc[:n]
        np.add(pieces[0], pieces[1], out=acc)
        for piece in pieces[2:]:
            np.add(acc, piece, out=acc)
        return acc

    def max_pairs(self, n: int):
        """Yield (d, line maxima, circle maxima) over the first n rows of
        ``entries``, for each d in increasing order."""
        k = self.k
        head = self._powers[0][:n]
        head[:, k:] = head[:, : self.ds[-1] - 1]
        for j in range(1, len(self._powers)):
            half, whole = self._powers[j - 1][:n], self._powers[j][:n]
            w = whole.shape[1]
            np.add(half[:, :w], half[:, 2 ** (j - 1) : 2 ** (j - 1) + w], out=whole)
        for d in self.ds:
            sums = self._sums(n, d)
            line = sums[:, : k - d + 1].max(axis=1)
            if d == 1:
                yield d, line, line.copy()
            else:
                yield d, line, np.maximum(line, sums[:, k - d + 1 :].max(axis=1))


# ---------------------------------------------------------------------------
# Limit-law building blocks
# ---------------------------------------------------------------------------


def gumbel_cdf(x):
    """Standard Gumbel distribution function exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


def solve_alpha(c: float) -> float:
    """Unique positive root of (1 + a) * exp(-a) = exp(-1/c) for c > 0.

    The left side decreases strictly from 1 to 0 on a > 0, so the root is
    unique.  Its log, log1p(a) - a + 1/c = 0, is solved by bisection of a
    bracket until the midpoint stops moving, that is, to adjacent floats;
    the log form has no cancellation against exp(-1/c) near 1, so the root
    is within a few ulps of the exact one.
    """
    if c <= 0:
        raise ValueError("c must be positive")

    def f(a):
        return math.log1p(a) - a + 1.0 / c

    lo, hi = 1e-16, 1.0
    while f(hi) > 0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid


def _log_order_d_constants(c: Optional[float]) -> tuple[float, float]:
    """(alpha, tau = c (1 + alpha)^2 / alpha) of the regime d = c log n."""
    if c is None or c <= 0:
        raise ValueError("log_order_d regime requires c > 0")
    alpha = solve_alpha(c)
    return alpha, c * (1.0 + alpha) ** 2 / alpha


def gumbel_centering_m_blocks(n: float, m: int) -> float:
    """Centering of the scaled non-overlapping block maximum, log n + f_n.

    f_n = (m - 1) loglog n - log((m - 1)!).  The statistic
    (max block) * m * n - centering converges to the standard Gumbel law for
    fixed m; for m = 1 the centering is just log n.
    """
    if n < 3:
        raise ValueError("n must be >= 3 for loglog to be positive")
    f_n = (m - 1) * math.log(math.log(n)) - math.lgamma(m)
    return math.log(n) + f_n


def dspacing_gumbel_centering(k: float, d: int) -> float:
    """Centering b_k for the Gumbel law of the maximal d-spacing times k.

    The asymptotic form log k + (d-1) loglog k - log((d-1)!) converges very
    slowly for d > 1, so b_k solves the self-consistent equation
    b = log k + (d-1) log b - log((d-1)!) by fixed-point iteration, which
    agrees to first order but tracks moderate k far better.

    The domain is where that iteration from b = log k stays positive.  Its
    map is increasing, so the iterates move monotonically: they converge
    when the equation has a root at or below log k, and otherwise fall to
    b <= 0, where log b is undefined, and ValueError is raised.  That first
    happens at d = 10 for k = 50, d = 15 for k = 300, d = 18 for k = 10^3
    and d = 24 for k = 10^4.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    base = math.log(k) - math.lgamma(d)
    if d == 1:
        return math.log(k)
    b = math.log(k)
    for _ in range(100):
        nxt = base + (d - 1) * math.log(b)
        if nxt <= 0:
            raise ValueError(
                f"no Gumbel centering at k={k}, d={d}: the fixed-point iteration "
                "from log k falls to b <= 0"
            )
        if abs(nxt - b) < 1e-13:
            return nxt
        b = nxt
    return b


# ---------------------------------------------------------------------------
# Closed-form predictors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Band prediction for the load-imbalance factor in one scaling regime.

    ``band_lo``/``band_hi`` bound the imbalance factor itself.  ``centering``
    and ``scale`` describe the underlying centered statistic: for the
    single-choice and small-d regimes the centering is in the (imbalance *
    m) resp. (imbalance * d) coordinate with scale 1; for the log-order-d
    regime the centering is of the scaled window maximum, with the iterated
    logarithm as fluctuation scale.
    """

    centering: float
    scale: float
    regime: str
    band_lo: float
    band_hi: float
    alpha: Optional[float] = None
    tau: Optional[float] = None

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.band_lo > self.band_hi:
            raise ValueError("band_lo must be <= band_hi")
        if self.regime == REGIME_LOG_ORDER_D:
            if self.alpha is None or self.tau is None:
                raise ValueError("log_order_d predictions carry alpha and tau")
            # tau = c (1+a)^2 / a determines c; check the defining equation.
            c = self.tau * self.alpha / (1.0 + self.alpha) ** 2
            resid = (1.0 + self.alpha) * math.exp(-self.alpha) - math.exp(-1.0 / c)
            if abs(resid) > 1e-10:
                raise ValueError("alpha does not satisfy its defining equation")


def predict_single_choice(n: float, m: int) -> AsymptoticPrediction:
    """Predictor for storage with no redundancy and m objects per node.

    The limit law says (imbalance * m) - log n - f_n is asymptotically
    standard Gumbel with f_n = (m-1) loglog n - log((m-1)!); the point
    prediction for imbalance * m is therefore log n + f_n.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if m < 1:
        raise ValueError("m must be >= 1")
    center = gumbel_centering_m_blocks(n, m)
    return AsymptoticPrediction(
        centering=center,
        scale=1.0,
        regime=REGIME_SINGLE,
        band_lo=center,
        band_hi=center,
    )


def _small_d_band(n: float, d: int, r: int) -> AsymptoticPrediction:
    """Small-d band of d-choice designs whose recovery sets hold r nodes.

    With B = log n + r(d-1)(1 + loglog n - log(1 + r(d-1))), the imbalance
    factor lies in [B/(2d), B/d]; r = 1 is the replica band.
    """
    b = math.log(n) + r * (d - 1) * (1.0 + math.log(math.log(n)) - math.log(1.0 + r * (d - 1)))
    return AsymptoticPrediction(
        centering=b,
        scale=1.0,
        regime=REGIME_SMALL_D,
        band_lo=b / (2 * d),
        band_hi=b / d,
    )


def _d_choice_band(
    n: float, d: int, r: int, regime: str, c: Optional[float], log_order_band
) -> AsymptoticPrediction:
    """Band of d-choice designs whose recovery sets hold r nodes, in
    ``regime``: ``_small_d_band``, or in the regime d = c log n the band
    (lo, hi) that ``log_order_band(alpha)`` gives, with alpha the root of
    (1+a)e^{-a} = e^{-1/c}, centred at (1 + alpha) c log n with scale
    loglog n."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if d < 1:
        raise ValueError("d must be >= 1")
    if regime == REGIME_SMALL_D:
        return _small_d_band(n, d, r)
    if regime == REGIME_LOG_ORDER_D:
        alpha, tau = _log_order_d_constants(c)
        band_lo, band_hi = log_order_band(alpha)
        return AsymptoticPrediction(
            centering=(1.0 + alpha) * c * math.log(n),
            scale=math.log(math.log(n)),
            regime=regime,
            band_lo=band_lo,
            band_hi=band_hi,
            alpha=alpha,
            tau=tau,
        )
    raise ValueError(f"unknown regime {regime!r}")


def predict_d_choice(
    n: float, d: int, regime: str, c: Optional[float] = None
) -> AsymptoticPrediction:
    """Band for the imbalance factor of d-choice replica designs.

    small_d: ``_small_d_band`` with r = 1, so B = log n + (d-1)(1 + loglog n
    - log d).  log_order_d (d = c log n): the band [q/6, q] with
    q = 3(a+1) loglog n / (2 c a log n), from the fluctuation bound of the
    window maximum, rearranged.
    """

    def band(alpha):
        q = 3.0 * (alpha + 1.0) / (2.0 * c * alpha) * math.log(math.log(n)) / math.log(n)
        return q / 6.0, q

    return _d_choice_band(n, d, 1, regime, c, band)


def predict_xor(
    n: float, d: int, r: int, regime: str, c: Optional[float] = None
) -> AsymptoticPrediction:
    """Band for the imbalance factor of d-choice designs built from r-XORs.

    small_d: ``_small_d_band``, the replica band with r(d-1) in place of d-1.
    log_order_d: the band is [X/2, X] with X = (a+1)(3 loglog n / (2 c a
    log n) + r).
    """
    if r < 2:
        raise ValueError("r must be >= 2 for XOR designs")

    def band(alpha):
        x = (alpha + 1.0) * (
            3.0 / (2.0 * c * alpha) * math.log(math.log(n)) / math.log(n) + r
        )
        return x / 2.0, x

    return _d_choice_band(n, d, r, regime, c, band)


def p_sigma_transition(
    kind_regime: str, d: int, m: int = 1, c: Optional[float] = None
) -> tuple[float, float]:
    """Thresholds (b_low, b_high) of the robustness phase transition.

    With cumulative load b * n / log n, the robustness probability tends to
    1 for b below b_low and to 0 for b above b_high.
    """
    if kind_regime == REGIME_SINGLE:
        return (float(m), float(m))
    if kind_regime == REGIME_SMALL_D:
        return (float(d), 2.0 * d)
    if kind_regime == REGIME_LOG_ORDER_D:
        _, tau = _log_order_d_constants(c)
        return (d / (1.5 * tau), 4.0 * d / tau)
    raise ValueError(f"unknown regime {kind_regime!r}")
