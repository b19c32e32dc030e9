"""Critical values, per-hypothesis power, combined power.

The trial tests the one-sided superiority hypotheses ``H_0f: beta_f <= 0``
for ``f = 1..q`` using Wald statistics ``Z_f = beta_f_hat * I_f^(1/2)``,
rejecting when ``Z_f > e``.  The familywise error rate is controlled either
per-hypothesis (``correction='none'``) or via Bonferroni.  Individual power
is the smallest per-hypothesis rejection probability at the clinically
relevant differences ``delta``; combined power is the probability of
rejecting at least one hypothesis, one minus a multivariate normal orthant
probability.  For ``q <= 3`` that probability is deterministic and accurate
to about 1e-12: for ``q = 2`` the Drezner & Wesolowsky (1990) bivariate
normal as refined by Genz (2004), for ``q = 3`` Genz's (2004) trivariate
method, a fixed quadrature of Plackett's (1954) identity over the bivariate
normal.  Both run over arrays, on a stack of problems at once, and a search
integrates its candidates in slices of a stack.  For ``q >= 4`` (up to 10)
it is estimated per problem by Genz's sequential conditioning on a
randomized rank-1 lattice rule.  Only ``math`` and numpy are used, not
the standard library's ``statistics``: the normal distribution function of
arrays is Cody's (1969) rational ``erfc``, and the normal quantile, of
scalars and arrays alike, is Wichura's (1988) AS241.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PowerSpec",
    "PowerReport",
    "critical_value",
    "per_hypothesis_power",
    "variance_limits",
    "mvn_upper_orthant",
    "orthant_inputs",
    "power_report",
]

#: Number of randomly shifted replicates and points per replicate of the
#: lattice rule for ``q >= 4``.
_MVN_REPLICATES = 8
_MVN_POINTS = 2**13

#: Panels of the composite rule for the trivariate orthant (``q = 3``).
_TVN_PANELS = 11

#: Square roots of these primes, modulo one, generate the Richtmyer lattice;
#: nine of them cover the ``q - 1 <= 9`` conditioning dimensions.
_LATTICE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PowerSpec:
    """Error rates and effect sizes for power evaluation.

    Attributes
    ----------
    alpha : float
        One-sided familywise significance level, in (0, 1).
    correction : str
        ``'none'`` or ``'bonferroni'``.
    beta : float
        Type-II error requirement in (0, 1]; ``beta = 1`` is the sentinel
        for "ignore power" searches.
    delta : numpy.ndarray
        Length-``q`` positive, finite clinically relevant differences.
    power_type : str
        ``'individual'`` (reject every false null) or ``'combined'``
        (reject at least one) for the feasibility requirement.
    """

    alpha: float
    correction: str = "bonferroni"
    beta: float = 0.2
    delta: np.ndarray = None
    power_type: str = "individual"

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.correction not in ("none", "bonferroni"):
            raise ValueError(f"unknown correction {self.correction!r}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.power_type not in ("individual", "combined"):
            raise ValueError(f"unknown power_type {self.power_type!r}")
        delta = np.asarray(
            [] if self.delta is None else self.delta, dtype=float
        )
        object.__setattr__(self, "delta", delta)
        if delta.ndim > 1 or not np.isfinite(delta).all():
            raise ValueError("delta must be a number or a flat list of "
                             f"finite numbers, got {delta.tolist()}")
        if delta.size and delta.min() <= 0:
            raise ValueError("delta entries must be positive")

    @property
    def q(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class PowerReport:
    """Rejection probabilities of a design at the specified effects.

    Attributes
    ----------
    critical_value : float
        Common rejection threshold ``e`` for the Wald statistics.
    per_hypothesis : numpy.ndarray
        Length-``q`` probabilities of rejecting each hypothesis at ``delta``.
    combined : float
        Probability of rejecting at least one hypothesis at ``delta``.
    meets_requirement : bool
        Whether the configured power type reaches ``1 - beta``.
    """

    critical_value: float
    per_hypothesis: np.ndarray
    combined: float
    meets_requirement: bool

    @property
    def individual(self) -> float:
        """Smallest per-hypothesis rejection probability."""
        return float(self.per_hypothesis.min())


# ---------------------------------------------------------------------------
# The standard normal distribution
# ---------------------------------------------------------------------------


def _phi(x: float) -> float:
    """Standard normal distribution function of a scalar."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _horner(coeffs, x):
    """Polynomial with ``coeffs`` (highest degree first) at array ``x``."""
    out = np.full(np.shape(x), coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


# Cody (1969) rational approximations to erf on |y| <= 0.46875 and to
# exp(y^2) erfc(y) on 0.46875 < y <= 4 and y > 4, with the coefficients of
# his CALERF routine.
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e00,
          1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03)
_ERF_B = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERFC_C = (2.15311535474403846e-8, 5.64188496988670089e-1,
           8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02,
           1.71204761263407058e03, 2.05107837782607147e03,
           1.23033935479799725e03)
_ERFC_D = (1.0, 1.57449261107098347e01, 1.17693950891312499e02,
           5.37181101862009858e02, 1.62138957456669019e03,
           3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (1.63153871373020978e-2, 3.05326634961232344e-1,
           3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_Q = (1.0, 2.56852019228982242e00, 1.87295284992346725e00,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)
_RSQRT_PI = 5.6418958354775628695e-1


def _ndtr(x):
    """Standard normal distribution function of an array.

    Cody's ``erfc`` with ``Phi(x) = erfc(-x / sqrt 2) / 2``.  The Gaussian
    factor ``exp(-x^2 / 2)`` is split at a multiple of 1/16 so the lower
    tail keeps full relative accuracy down to the underflow near ``-38``.
    """
    x = np.asarray(x, dtype=float)
    ax = np.minimum(np.abs(x), 40.0)
    y = ax / _SQRT2
    ysq = y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        erf = (x / _SQRT2) * _horner(_ERF_A, ysq) / _horner(_ERF_B, ysq)
        inv = 1.0 / ysq
        ratio = np.where(
            y <= 4.0,
            _horner(_ERFC_C, y) / _horner(_ERFC_D, y),
            (_RSQRT_PI - inv * _horner(_ERFC_P, inv) / _horner(_ERFC_Q, inv))
            / y,
        )
    xr = np.trunc(16.0 * ax) / 16.0
    lower = (0.5 * np.exp(-0.5 * xr * xr)
             * np.exp(-0.5 * (ax - xr) * (ax + xr)) * ratio)
    return np.where(y <= 0.46875, 0.5 + 0.5 * erf,
                    np.where(x < 0, lower, 1.0 - lower))


# Wichura (1988) AS241 (PPND16) coefficients: the central region
# |p - 1/2| <= 0.425, then the tails with r = sqrt(-log(min(p, 1 - p)))
# below and above 5.
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4,
            6.7265770927008700853e4, 4.5921953931549871457e4,
            1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4,
            3.9307895800092710610e4, 2.1213794301586595867e4,
            5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2,
            2.41780725177450611770e-1, 1.27045825245236838258e0,
            3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4,
            1.51986665636164571966e-2, 1.48103976427480074590e-1,
            6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5,
            1.24266094738807843860e-3, 2.65321895265761230930e-2,
            2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7,
            1.84631831751005468180e-5, 7.86869131145613259100e-4,
            1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def _ndtri(p):
    """Standard normal quantile function of an array of probabilities."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    r = 0.180625 - q * q
    central = q * _horner(_AS241_A, r) / _horner(_AS241_B, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.sqrt(-np.log(np.where(q < 0, p, 1.0 - p)))
        near = t - 1.6
        far = t - 5.0
        tail = np.where(
            t <= 5.0,
            _horner(_AS241_C, near) / _horner(_AS241_D, near),
            _horner(_AS241_E, far) / _horner(_AS241_F, far),
        )
    return np.where(np.abs(q) <= 0.425, central,
                    np.where(q < 0, -tail, tail))


@lru_cache(maxsize=128)
def _upper_quantile(tail: float) -> float:
    """``z`` with ``P(Z > z) = tail`` for a standard normal ``Z``.

    Cached: AS241 on one value costs about 0.1 ms, and a search asks for
    the same two tails once per chunk.
    """
    if not 0 < tail < 1:
        raise ValueError(f"tail probability {tail} is outside (0, 1)")
    return float(-_ndtri(tail))


# ---------------------------------------------------------------------------
# Critical values and per-hypothesis power
# ---------------------------------------------------------------------------


def critical_value(alpha: float, q: int, correction: str = "none") -> float:
    """Upper-tail standard normal quantile controlling the error rate.

    Returns ``e`` with upper-tail probability ``alpha`` (``correction='none'``)
    or ``alpha / q`` (``correction='bonferroni'``).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if correction == "none":
        tail = alpha
    elif correction == "bonferroni":
        tail = alpha / q
    else:
        raise ValueError(f"unknown correction {correction!r}")
    return _upper_quantile(tail)


def per_hypothesis_power(delta_f: float, info_f: float, e: float) -> float:
    """Probability of rejecting one hypothesis at effect ``delta_f``.

    ``P(Z_f > e) = Phi(delta_f * sqrt(info_f) - e)`` when the true effect
    is ``delta_f`` and the estimator variance is ``1 / info_f``.
    """
    if info_f <= 0:
        raise ValueError(f"info_f must be positive, got {info_f}")
    return _phi(delta_f * math.sqrt(info_f) - e)


def variance_limits(delta, e: float, beta: float) -> np.ndarray:
    """Largest ``Lambda_ff`` at which each hypothesis keeps power ``1 - beta``.

    ``Phi(delta_f / sqrt(Lambda_ff) - e) >= 1 - beta`` holds exactly when
    ``Lambda_ff <= (delta_f / (e + z_{1-beta}))^2``, and for every variance
    when ``e + z_{1-beta} <= 0`` (the limits are then infinite).  A search
    thereby filters on individual power without evaluating ``Phi``.
    """
    delta = np.asarray(delta, dtype=float)
    s = e + _upper_quantile(beta)
    if s <= 0:
        return np.full(delta.shape, np.inf)
    return (delta / s) ** 2


# ---------------------------------------------------------------------------
# Orthant probabilities
# ---------------------------------------------------------------------------


def _check_corr(corr: np.ndarray, shape: tuple) -> np.ndarray | None:
    """Validate a ``q x q x k`` stack of correlations for ``(q, k)`` limits.

    Symmetry and the unit diagonal take the ``np.isclose`` tolerances.
    Positive semidefiniteness needs an eigenvalue solver only for
    ``q >= 3``, which returns the ``(k, q)`` eigenvalues for the lattice
    rule; for ``q = 2`` the smallest one has a closed form.  An infinite
    entry makes the smallest eigenvalue NaN or ``-inf`` and is rejected.
    """
    q = shape[0]
    if corr.shape != (q, *shape):
        raise ValueError("corr must be square and match the limits")
    if not np.isclose(corr, corr.swapaxes(0, 1), atol=1e-10).all():
        raise ValueError("corr must be symmetric")
    d = corr[range(q), range(q)]
    if not np.isclose(d, 1.0, atol=1e-8).all():
        raise ValueError("corr must have unit diagonal")
    vals = np.linalg.eigvalsh(np.moveaxis(corr, -1, 0)) if q >= 3 else None
    low = vals[:, 0] if q >= 3 else d[0] if q == 1 else (
        (d[0] + d[1]) / 2 - np.hypot((d[0] - d[1]) / 2, corr[1, 0]))
    # Written so that a NaN eigenvalue, from an infinite entry, fails too.
    if not (low >= -1e-10).all():
        raise ValueError("corr must be positive semidefinite")
    return vals


# The positive half of the 20-point Gauss-Legendre rule, digit for digit as
# ``numpy.polynomial.legendre.leggauss(20)`` returns it; the rule is
# symmetric about zero.
_GL_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
             0.5108670019508271, 0.636053680726515, 0.7463319064601508,
             0.8391169718222188, 0.912234428251326, 0.9639719272779138,
             0.993128599185095)
_GL_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
               0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
               0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
               0.017614007139150893)

#: Quadrature nodes per problem: the bivariate rule, and it on each panel.
ORTHANT_NODES = {2: 2 * len(_GL_NODES), 3: 2 * len(_GL_NODES) * _TVN_PANELS}


@lru_cache(maxsize=1)
def _gauss_legendre():
    """20-point Gauss-Legendre nodes shifted to (0, 2), and their weights."""
    t = np.array(_GL_NODES)
    w = np.array(_GL_WEIGHTS)
    return (np.concatenate((1.0 - t[::-1], 1.0 + t)),
            np.concatenate((w[::-1], w)))


def _bvn_upper(h, k, r):
    """``P(X > h, Y > k)`` for standard normals with correlation ``r``.

    Elementwise over arrays of one shape.  Genz's (2004) form of the
    Drezner & Wesolowsky (1990) method: for ``|r| < 0.925`` Gauss-Legendre
    quadrature of Plackett's integral over ``asin(r)``; above that, a
    series for the near-singular part plus quadrature of the remainder.
    Both run on every element and a mask picks one.  Accurate to about
    1e-15 absolute.
    """
    h, k, r = np.broadcast_arrays(h, k, r)
    x, w = _gauss_legendre()
    high = np.abs(r) >= 0.925
    k = np.where(high & (r < 0), -k, k)
    hk = h * k
    as_ = (1.0 - r) * (1.0 + r)
    a = np.sqrt(as_)
    bs = (h - k) ** 2
    b = np.sqrt(bs)
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    # Where r = +-1 only the closing terms count: a = 0 makes NaNs.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ph, pk, qh, qk, pb = _ndtr(np.stack((-h, -k, h, k, -b / a)))
        asr = np.arcsin(r)[..., None] / 2.0
        sn = np.sin(asr * x)
        low = np.exp((sn * hk[..., None] - (h * h + k * k)[..., None] / 2.0)
                     / (1.0 - sn * sn)) @ w * asr[..., 0] / _TWO_PI + ph * pk
        e = -(bs / as_ + hk) / 2.0
        series = np.where(e > -100, a * np.exp(e) * (
            1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_
        ), 0.0) - np.where(hk > -100, np.exp(-np.maximum(hk, -100.0) / 2.0)
                           * math.sqrt(_TWO_PI) * pb * b
                           * (1.0 - c * bs * (1.0 - d * bs) / 3.0), 0.0)
        c, d = c[..., None], d[..., None]
        xs = ((a / 2.0)[..., None] * x) ** 2
        e = -(bs[..., None] / xs + hk[..., None]) / 2.0
        rs = np.sqrt(1.0 - xs)
        ep = np.exp(-(hk[..., None] / 2.0) * xs / (1.0 + rs) ** 2) / rs
        quad = np.where(e > -100, np.exp(e) * (
            1.0 + c * xs * (1.0 + 5.0 * d * xs) - ep), 0.0) @ w
    part = np.where(as_ > 0, (a / 2.0 * quad - series) / _TWO_PI, 0.0)
    bvn = np.where(r > 0, part + np.where(h >= k, ph, pk), np.where(
        h >= k, 0.0, np.where(h < 0, qk - qh, ph - pk)) - part)
    return np.clip(np.where(high, bvn, low), 0.0, 1.0)


@lru_cache(maxsize=1)
def _tvn_nodes():
    """Composite Gauss-Legendre rule on (0, 1) for :func:`_tvn_upper`.

    The panels end at ``1 - 8^-j`` for ``j = 0 .. _TVN_PANELS - 1`` and at 1.
    For a singular correlation matrix the conditional variances vanish at
    ``t = 1`` like ``1 - t``, so the integrand has a boundary layer there
    that can be arbitrarily thin; the geometric grading resolves it.
    """
    x, w = _gauss_legendre()
    edges = np.append(1.0 - 8.0 ** -np.arange(_TVN_PANELS), 1.0)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * x).ravel(), (half * w).ravel()


def _tvn_upper(h, r):
    """``P(X > h)`` for standard trivariate normals with correlations ``r``.

    ``h`` and ``r = (r12, r13, r23)``, in [-1, 1], have a leading axis of
    three; each trailing index is one problem.  Genz's (2004) method: the
    variables are reordered so that ``|r23|`` is the largest correlation,
    and Plackett's (1954) identity integrates the derivative along
    ``r12(t) = t r12``, ``r13(t) = t r13`` from ``Phi(-h1) P(X2 > h2,
    X3 > h3)`` at ``t = 0``::

        dP/dt = r12 phi2(h1, h2; r12(t)) P(X3 > h3 | X1 = h1, X2 = h2)
              + r13 phi2(h1, h3; r13(t)) P(X2 > h2 | X1 = h1, X3 = h3)

    on the fixed rule of :func:`_tvn_nodes`.  Both conditional variances
    are ``det R(t) / (1 - r1j(t)^2)``; where ``det R(t)`` reaches zero the
    conditional probability is a step.  ``|r23| = 1`` reduces to bivariate
    probabilities.  Accurate to about 1e-12 absolute.
    """
    h, r = np.asarray(h, dtype=float), np.asarray(r, dtype=float)
    a = np.abs(r)
    # Keep the order, swap the first two variables, or rotate them.
    case = np.where(a[0] > np.maximum(a[1], a[2]), 2, a[1] > a[2])
    h1, h2, h3 = np.choose(case, (h, h[[1, 0, 2]], h[[2, 0, 1]]))
    r12, r13, r23 = np.choose(case, (r, r[[0, 2, 1]], r[[1, 2, 0]]))
    # The bivariate probabilities at t = 0 and where X3 is X2 or -X2.
    at0, one, upper, lower = _bvn_upper([h2, h1, h1, h1], [
        h3, np.maximum(h2, h3), h2, -h3], [r23, r12, r12, r12])
    singular = np.where(r23 > 0, one, upper - lower)  # clipped below
    t, w = _tvn_nodes()
    det = (1.0 - r23 * r23)[..., None] - t * t * (
        r12 * r12 + r13 * r13 - 2.0 * r12 * r13 * r23)[..., None]
    h1, h2, h3, r12, r13, r23 = (v[..., None]
                                 for v in (h1, h2, h3, r12, r13, r23))
    dp = 0.0
    # The r12 term, then the r13 term, each with its own temporaries.
    for rj, rk, hj, hk in ((r12, r13, h2, h3), (r13, r12, h3, h2)):
        sj, sk = t * rj, t * rk
        cj = 1.0 - sj * sj
        # The conditional upper-tail limit's numerator, times 1 - r1j(t)^2.
        num = (sk - sj * r23) * h1 + (r23 - sj * sk) * hj - cj * hk
        dp += rj * np.exp((sj * h1 * hj - (h1 * h1 + hj * hj) / 2.0) / cj) \
            * _ndtr(num / np.sqrt(np.maximum(det * cj, 1e-300))) / np.sqrt(cj)
    tvn = _ndtr(-h1[..., 0]) * at0 + dp @ w / _TWO_PI
    return np.clip(np.where(np.abs(r23[..., 0]) == 1.0, singular, tvn),
                   0.0, 1.0)


def _lattice_orthant(b, corr, vals, seed: int) -> float:
    """Lower-orthant probability ``P(Y <= b)`` for ``q >= 4`` by lattice QMC.

    Sequential conditioning (Genz 1992) with the variables ordered by
    increasing limit, integrated by a Richtmyer rank-1 lattice rule with the
    tent periodization, averaged over randomly shifted replicates.  One
    replicate's points are live at a time.  Their sums are added pairwise,
    where numpy's pairwise sum of all the points splits them, so the value
    is that sum's, bit for bit.
    """
    q = b.size
    order = np.argsort(b)
    b = b[order]
    corr = corr[np.ix_(order, order)]
    try:
        L = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        jitter = max(1e-12, -vals[0] * 2 + 1e-12)
        L = np.linalg.cholesky(corr + jitter * np.eye(q))
    d = q - 1
    z = np.sqrt(np.array(_LATTICE_PRIMES[:d], dtype=float)) % 1.0
    base = np.outer(np.arange(1, _MVN_POINTS + 1), z) % 1.0
    shifts = np.random.default_rng(seed).random((_MVN_REPLICATES, 1, d))
    tiny = 1e-15
    sums = []
    for shift in shifts:
        w = np.abs(2.0 * ((base + shift) % 1.0) - 1.0)
        cond = np.full(_MVN_POINTS, _phi(b[0] / L[0, 0]))
        prob = cond.copy()
        y = np.empty((_MVN_POINTS, d))
        for i in range(1, q):
            y[:, i - 1] = _ndtri(np.clip(w[:, i - 1] * cond, tiny, 1 - tiny))
            cond = _ndtr((b[i] - y[:, :i] @ L[i, :i]) / L[i, i])
            prob *= cond
        sums.append(float(prob.sum()))
    while len(sums) > 1:
        sums = [s + t for s, t in zip(sums[::2], sums[1::2])]
    return sums[0] / (_MVN_REPLICATES * _MVN_POINTS)


def mvn_upper_orthant(limits, mean, corr, seed: int = 0):
    """``P(Y_f <= limits_f for all f)`` for ``Y ~ N(mean, corr)``.

    One problem, with length-``q`` ``limits`` and ``mean`` and a ``q x q``
    ``corr``, gives a float; a stack of ``k`` on a trailing axis of each
    gives ``k`` values.  ``q <= 3`` integrates a stack at once on arrays of
    ``k`` times :data:`ORTHANT_NODES` entries, so callers slice large
    stacks; it is accurate to about 1e-12 and ignores ``seed``.  ``q >= 4``
    runs a randomized lattice rule per problem, deterministic for a fixed
    ``seed``: at ``q = 4`` its absolute error over 8 seeds reached 2e-5 on
    correlation matrices with smallest eigenvalue above 0.02, and 2e-4 on
    nearly singular ones.  ``q`` up to 10 is supported.
    """
    b, corr = np.subtract(limits, mean, dtype=float), np.asarray(corr, float)
    single = b.ndim < 2
    if single:
        b, corr = b.reshape(-1, 1), corr[..., None]
    q = b.shape[0]
    if not 1 <= q <= 10:
        raise ValueError(f"dimension q must lie in 1..10, got {q}")
    if not np.isfinite(b).all():
        raise ValueError("limits and mean must be finite")
    vals = _check_corr(corr, b.shape)
    if q == 1:
        value = _ndtr(b[0])
    elif q == 2:
        value = _bvn_upper(-b[0], -b[1], np.clip(corr[0, 1], -1.0, 1.0))
    elif q == 3:
        value = _tvn_upper(-b, np.clip(corr[[0, 0, 1], [1, 2, 2]], -1.0, 1.0))
    else:
        value = np.array([_lattice_orthant(b[:, j], corr[:, :, j], vals[j],
                                           seed) for j in range(b.shape[1])])
    value = np.clip(value, 0.0, 1.0)
    return float(value[0]) if single else value


def orthant_inputs(Lambda, delta, e: float):
    """``(limits, mean, corr)`` stacks of the no-rejection orthants.

    ``Lambda`` holds ``k`` matrices ``Lambda_q`` as ``q x q`` entry vectors
    (``Lambda[i][j]``; a ``q x q x k`` array is one too).  No hypothesis is
    rejected when every ``Z_f <= e``; at ``delta`` the ``Z_f`` have means
    ``delta_f / sd_f`` and the correlations of ``Lambda_q``.
    """
    corr = np.array(Lambda, dtype=float)
    q = len(corr)
    sd = np.sqrt(corr[range(q), range(q)])
    corr /= sd[:, None] * sd
    corr[range(q), range(q)] = 1.0
    mean = np.asarray(delta, dtype=float)[:, None] / sd
    return np.full(mean.shape, e), mean, corr


def power_report(summary, spec: PowerSpec, seed: int = 0) -> PowerReport:
    """Full power evaluation of a design's covariance summary.

    Parameters
    ----------
    summary : CovarianceSummary
        Treatment-effect covariance and information levels.
    spec : PowerSpec
        Error rates and effect sizes; ``len(spec.delta)`` must equal
        ``summary.q``.
    seed : int
        Seed for the combined-power integral (used only when ``q >= 4``;
        for ``q <= 3`` the combined power is deterministic).
    """
    if spec.q != summary.q:
        raise ValueError(
            f"delta has length {spec.q} but the design has q={summary.q}"
        )
    e = critical_value(spec.alpha, summary.q, spec.correction)
    info = np.asarray(summary.info, dtype=float)
    per = np.array([_phi(t) for t in spec.delta * np.sqrt(info) - e])
    combined = float(per[0]) if summary.q == 1 else 1.0 - float(
        mvn_upper_orthant(*orthant_inputs(
            np.asarray(summary.Lambda_q)[..., None], spec.delta, e), seed)[0])
    achieved = per.min() if spec.power_type == "individual" else combined
    meets = bool(spec.beta >= 1.0 or achieved >= 1.0 - spec.beta)
    return PowerReport(
        critical_value=e,
        per_hypothesis=per,
        combined=combined,
        meets_requirement=meets,
    )
