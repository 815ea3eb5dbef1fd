"""Uniform spacings: the demand model, windowed maxima, and asymptotic predictors.

Demand vectors with a fixed cumulative load sigma are distributed like k
uniform spacings scaled to [0, sigma].  The windowed maxima of those spacings
(on the line and on the circle) drive both the exact stability conditions and
the Gumbel-type limit laws, so they are implemented here once, over (T, k)
batches of demand rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_UINT64_MASK = (1 << 64) - 1

#: Euler-Mascheroni constant (mean of the standard Gumbel distribution).
EULER_GAMMA = 0.57721566490153286

REGIME_SINGLE = "fixed_m_single_choice"
REGIME_SMALL_D = "small_d"
REGIME_LOG_ORDER_D = "log_order_d"


@dataclass(frozen=True)
class RandomStream:
    """A reproducible, splittable random stream.

    Streams are keyed by ``(master_seed, stream_index)`` through a Philox
    counter-based generator: identical keys reproduce identical draw
    sequences, distinct stream indices give statistically independent
    streams.  ``master_seed`` must lie in [0, 2^64); it is one 64-bit word of
    the Philox key.  Trial i draws from the stream
    ``RandomStream(master_seed, i)``, a Philox generator keyed
    ``(i, master_seed)``; ``spacing_matrix`` re-keys one bit generator to
    each trial's key instead of building one per trial.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _UINT64_MASK:
            raise ValueError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def key(self) -> np.ndarray:
        """The Philox key ``(stream_index, master_seed)`` as exact uint64 words."""
        return np.array([self.stream_index & _UINT64_MASK, self.master_seed], dtype=np.uint64)


def spacing_matrix(
    k: int, sigma: float, master_seed: int, trials: int, start_index: int = 0
) -> np.ndarray:
    """Stack ``trials`` independent samples into a (trials, k) matrix.

    Row i is k unit-rate exponentials drawn from a Philox generator keyed
    ``(start_index + i, master_seed)``, scaled to sum to sigma (the Gamma
    representation of uniform spacings, so sigma is a pure scale factor).
    One Philox bit generator is re-keyed for each row (counter 0, buffer
    empty: the state of a freshly keyed Philox), which reproduces each
    per-trial substream without building a generator per row.  Every
    call draws afresh.
    """
    key = RandomStream(master_seed, start_index).key()
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"]["key"] = key
    out = np.empty((trials, k))
    for i, row in enumerate(out):
        key[0] = (start_index + i) & _UINT64_MASK
        bitgen.state = fresh
        gen.standard_exponential(out=row)
    out *= (sigma / out.sum(axis=1))[:, None]
    return out


# ---------------------------------------------------------------------------
# Windowed maxima
# ---------------------------------------------------------------------------


def prefix_sums(a: np.ndarray, wrap: int = 0) -> np.ndarray:
    """Row prefix sums of a (T, k) matrix, continued ``wrap`` entries cyclically.

    ``p[:, j]`` is the sum of the first j entries of the cyclically extended
    row, for j in [0, k + wrap], so the window of d entries starting at i
    sums to ``p[:, i + d] - p[:, i]``.  The cumulative sum runs left to right,
    so an entry does not depend on ``wrap``: windows cut from one prefix equal
    those cut from prefixes built for each window size.
    """
    t, k = a.shape
    if not 0 <= wrap < k:
        raise ValueError(f"wrap must be in [0, {k}), got {wrap}")
    p = np.empty((t, k + wrap + 1))
    p[:, 0] = 0.0
    p[:, 1 : k + 1] = a
    p[:, k + 1 :] = a[:, :wrap]
    np.cumsum(p[:, 1:], axis=1, out=p[:, 1:])
    return p


def _window_sums(p: np.ndarray, k: int, d: int) -> np.ndarray:
    return p[:, d : d + k] - p[:, :k]


def window_max(p: np.ndarray, k: int, d: int) -> np.ndarray:
    """Per-row maximum sum of d entries on the circle, cut from ``prefix_sums``.

    The windows start at 0..k-1, which needs a prefix continued at least
    d - 1 entries; line maxima come from ``window_max_pair``.
    """
    return _window_sums(p, k, d).max(axis=1)


def window_max_pair(p: np.ndarray, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(line, circle) maxima of d consecutive entries from one array of window sums.

    The line windows are the first k - d + 1 circular windows, so circle >=
    line holds exactly, the circle maximum equals ``window_max`` bit for bit,
    and only one (T, k) array of sums is made.
    """
    sums = _window_sums(p, k, d)
    return sums[:, : k - d + 1].max(axis=1), sums.max(axis=1)


# ---------------------------------------------------------------------------
# Limit-law building blocks
# ---------------------------------------------------------------------------


def gumbel_cdf(x):
    """Standard Gumbel distribution function exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


def solve_alpha(c: float) -> float:
    """Unique positive root of (1 + a) * exp(-a) = exp(-1/c) for c > 0.

    The left side decreases strictly from 1 to 0 on a > 0, so the root is
    unique; solved by bracketed root-finding to absolute tolerance well under
    1e-12.
    """
    from scipy.optimize import brentq

    if c <= 0:
        raise ValueError("c must be positive")
    target = math.exp(-1.0 / c)

    def f(a):
        return (1.0 + a) * math.exp(-a) - target

    hi = 1.0
    while f(hi) > 0:
        hi *= 2.0
    return float(brentq(f, 1e-16, hi, xtol=1e-15, rtol=8.9e-16))


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
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    base = math.log(k) - math.lgamma(d)
    if d == 1:
        return math.log(k)
    b = math.log(k)
    for _ in range(100):
        nxt = base + (d - 1) * math.log(b)
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


def predict_d_choice(
    n: float, d: int, regime: str, c: Optional[float] = None
) -> AsymptoticPrediction:
    """Band for the imbalance factor of d-choice replica designs.

    small_d: ``_small_d_band`` with r = 1, so B = log n + (d-1)(1 + loglog n
    - log d).  log_order_d (d = c log n): the band comes from the fluctuation
    bound of the window maximum, rearranged, using the root of
    (1+a)e^{-a} = e^{-1/c}.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if d < 1:
        raise ValueError("d must be >= 1")
    if regime == REGIME_SMALL_D:
        return _small_d_band(n, d, 1)
    if regime == REGIME_LOG_ORDER_D:
        alpha, tau = _log_order_d_constants(c)
        q = 3.0 * (alpha + 1.0) / (2.0 * c * alpha) * math.log(math.log(n)) / math.log(n)
        return AsymptoticPrediction(
            centering=(1.0 + alpha) * c * math.log(n),
            scale=math.log(math.log(n)),
            regime=regime,
            band_lo=q / 6.0,
            band_hi=q,
            alpha=alpha,
            tau=tau,
        )
    raise ValueError(f"unknown regime {regime!r}")


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
    if n < 3:
        raise ValueError("n must be >= 3")
    if d < 1:
        raise ValueError("d must be >= 1")
    if regime == REGIME_SMALL_D:
        return _small_d_band(n, d, r)
    if regime == REGIME_LOG_ORDER_D:
        alpha, tau = _log_order_d_constants(c)
        x = (alpha + 1.0) * (
            3.0 / (2.0 * c * alpha) * math.log(math.log(n)) / math.log(n) + r
        )
        return AsymptoticPrediction(
            centering=(1.0 + alpha) * c * math.log(n),
            scale=math.log(math.log(n)),
            regime=regime,
            band_lo=x / 2.0,
            band_hi=x,
            alpha=alpha,
            tau=tau,
        )
    raise ValueError(f"unknown regime {regime!r}")


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
