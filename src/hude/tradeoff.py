"""Statistical-computational trade-off curves.

KL divergences over the forced two-by-two coupling, the constrained ratio
objective whose infimum lower-bounds any list-of-points data structure, its
minimization and the alpha search (both zeros of first-order conditions,
found by Brent's zero finder), the closed-form lower and upper curves, and
:class:`TradeoffPoint` rows of all of them on a common sample-ratio axis
(written as CSV by :func:`hude.distributions.write_rows`).

Conventions: natural logarithms throughout, 0*log(0) = 0, and +inf sentinels
for divergences of non-absolutely-continuous pairs (they propagate through
min/max arithmetic without exceptions).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)


def _xlog_ratio(x, ref):
    """x * log(x / ref) with the 0*log(0) = 0 convention; +inf when ref == 0 < x."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(x / ref)
    out = np.where(x == 0.0, 0.0, out)
    if (ref == 0.0).any():
        out = np.where((x > 0.0) & (ref == 0.0), np.inf, out)
    return out


# _kl_scalar takes the series where |p - q| < _NEAR * min(q, 1 - q) and
# elsewhere takes each term from d = p - q with log1p: the direct
# (1-p) log((1-p)/(1-q)) keeps only the absolute precision of a ratio near 1,
# and cancels against p log(p/q) when q is small (6e-5 relative at
# p = 2e-12, q = 1e-12).
_NEAR = 0.02
_SERIES_TERMS = 4  # truncation error below 1e-18 relative at |v| < 0.0102


def _bd0_series(x, m, d):
    """bd0(x, m) = x log(x/m) + m - x from d = x - m, when |d| < 0.0102 (x + m),
    as d v + 2x (v^3/3 + v^5/5 + ...) with v = d/(x+m) (Loader 2000, "Fast and
    Accurate Computation of Binomial Probabilities"): one sign, no cancellation."""
    v = d / (x + m)
    v2 = v * v
    tail = 1.0 / (2 * _SERIES_TERMS + 1)
    for j in range(_SERIES_TERMS - 1, 0, -1):
        tail = tail * v2 + 1.0 / (2 * j + 1)
    return d * v + 2.0 * x * v * v2 * tail


def _xlog1p(x: float, ref: float, d: float) -> float:
    """x log(x/ref) as x log1p(d/ref) from d = x - ref, for ref > 0; the direct
    form where d/ref rounds to -1 or below (x is 0 or far below ref), and
    x (log x - log ref) where it overflows (ref subnormal)."""
    ratio = d / ref
    if -1.0 < ratio < math.inf:
        return x * math.log1p(ratio)
    if ratio == math.inf and ref > 0.0:
        return x * (math.log(x) - math.log(ref))
    return x * math.log(x / ref) if x else 0.0


def _kl_scalar(x: float, ref: float) -> float:
    """d(x || ref) for 0 < ref < 1, with no validation: bd0(x, ref) +
    bd0(1-x, 1-ref) by the series from d = x - ref where x and ref are close
    (see _NEAR), and the two _xlog1p terms elsewhere.  On numpy scalars
    (:func:`_map_floats`) division by zero makes ref = 0 or 1 give 0 where
    x == ref and +inf elsewhere."""
    d = x - ref
    if abs(d) < _NEAR * min(ref, 1.0 - ref):
        return _bd0_series(x, ref, d) + _bd0_series(1.0 - x, 1.0 - ref, -d)
    return _xlog1p(x, ref, d) + _xlog1p(1.0 - x, 1.0 - ref, -d)


def _map_floats(fun, *args):
    """fun on each element of the broadcast float64 arguments: a float for
    scalar input, an array otherwise.  The elements are numpy scalars, so a
    division by zero or an overflow in fun gives inf or nan, as array
    arithmetic would, and raises no ZeroDivisionError."""
    grid = np.broadcast(*(np.asarray(a, dtype=np.float64) for a in args))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.fromiter((fun(*xs) for xs in grid), np.float64, count=grid.size)
    if grid.ndim == 0:
        return float(out[0])
    return out.reshape(grid.shape)


def kl_binary(p, q):
    """KL divergence between Bernoulli(p) and Bernoulli(q), natural log.

    :func:`_kl_scalar` on each element; at q = 0 or 1 it is 0 where p == q
    and +inf elsewhere, and NaN in gives NaN out.
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("first argument must lie in [0, 1]")
    if np.any((q < 0) | (q > 1)):
        raise ValueError("second argument must lie in [0, 1]")
    return _map_floats(_kl_scalar, p, q)


def coupling_kl(t_q, t_u, w_q, w_u):
    """KL divergence of the forced coupling against the instance joint law.

    Both joints share the zero upper-right cell, so the divergence is the sum
    over the three supported cells (t_q, t_u - t_q, 1 - t_u) against
    (w_q, w_u - w_q, 1 - w_u).
    """
    out = (
        _xlog_ratio(t_q, w_q)
        + _xlog_ratio(np.asarray(t_u, dtype=np.float64) - t_q, w_u - w_q)
        + _xlog_ratio(1.0 - np.asarray(t_u, dtype=np.float64), 1.0 - w_u)
    )
    if out.ndim == 0:
        return float(out)
    return out


def objective(t_q, t_u, w_q, w_u, alpha):
    """The constrained ratio objective, :func:`_objective_scalar` on each element.

    The domain is 0 <= t_q <= t_u <= 1 less the line t_u == w_u, where the
    denominator vanishes, for 0 <= w_q <= w_u <= 1.
    """
    t_q, t_u, w_q, w_u = (np.asarray(a, dtype=np.float64) for a in (t_q, t_u, w_q, w_u))
    if np.any(t_u == w_u):
        raise ValueError("objective undefined at t_u == w_u (zero denominator)")
    if np.any((t_q < 0.0) | (t_q > t_u) | (t_u > 1.0)):
        raise ValueError("objective needs 0 <= t_q <= t_u <= 1")
    if np.any((w_q < 0.0) | (w_q > w_u) | (w_u > 1.0)):
        raise ValueError("objective needs 0 <= w_q <= w_u <= 1")
    return _map_floats(_objective_scalar, t_q, t_u, w_q, w_u, alpha)


def _objective_scalar(t_q: float, t_u: float, w_q: float, w_u: float, alpha: float) -> float:
    """The objective at one feasible point (not checked), as the side search
    evaluates it.

    By the KL chain rule the two numerator gaps have cancellation-free forms
        D - d(t_u||w_u) = t_u * d(t_q/t_u || w_q/w_u)
        D - d(t_q||w_q) = (1-t_q) * d((t_u-t_q)/(1-t_q) || (w_u-w_q)/(1-w_q)),
    both manifestly nonnegative, so the ratio never takes the wrong sign;
    g_q and g_u are these gaps over d(t_u||w_u), and F = alpha * g_q +
    (1 - alpha) * g_u.  The conditional divergences are nonnegative exactly;
    flooring them at 0 removes sign noise that the 1/d_u amplification would
    otherwise blow up.
    """
    d_u = _kl_scalar(t_u, w_u)
    gap_u = 0.0
    if t_u > 0.0:
        gap_u = t_u * max(_kl_scalar(min(max(t_q / t_u, 0.0), 1.0), w_q / w_u), 0.0)
    gap_q = 0.0
    if t_q < 1.0:
        cond = min(max((t_u - t_q) / (1.0 - t_q), 0.0), 1.0)
        gap_q = (1.0 - t_q) * max(_kl_scalar(cond, (w_u - w_q) / (1.0 - w_q)), 0.0)
    return (alpha * gap_q + (1.0 - alpha) * gap_u) / d_u


def objective_from_divergences(t_q, t_u, w_q, w_u, alpha):
    """Independent coding of the same objective, straight from its definition:

    [alpha*(D - d(t_q||w_q)) + (1-alpha)*(D - d(t_u||w_u))] / d(t_u||w_u)
    with D the coupling divergence.  Used to cross-check :func:`objective`.
    """
    t_u_arr = np.asarray(t_u, dtype=np.float64)
    if np.any(t_u_arr == w_u):
        raise ValueError("objective undefined at t_u == w_u (zero denominator)")
    big = coupling_kl(t_q, t_u_arr, w_q, w_u)
    d_u = kl_binary(t_u_arr, w_u)
    d_q = kl_binary(t_q, w_q)
    out = (alpha * (big - d_q) + (1.0 - alpha) * (big - d_u)) / d_u
    if np.ndim(out) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Constrained minimization of the objective over the feasible triangle
# ---------------------------------------------------------------------------


_EXCLUDE_BAND = 1e-4  # the search's exclusion half-width around t_u == w_u
_SIDE_XTOL = 1e-5  # the zero finder's tolerance in each side's search variable (_side_minimum)
_FAR_GAP = 1e-12  # that search stops this share of the side short of its far end
# A side minimum less than this share below the line limit reports the limit:
# at w_q = 1e-5, w_u = alpha = 1/2 float rounding put one 1.3e-12 below it,
# where 60-digit arithmetic puts the objective 1.2e-13 above.
_TIE_RTOL = 1e-11


@dataclass(frozen=True)
class InfimumResult:
    """The objective's infimum and its point.  ``t_u == w_u`` marks a limit along
    the excluded line (_line_limit) that no feasible point attains there;
    ``objective`` raises at it by design."""

    value: float
    t_q: float
    t_u: float


def _brent_zero(fun, lo: float, hi: float, xtol: float) -> float:
    """Where fun turns from negative to nonnegative on [lo, hi].

    lo if fun(lo) >= 0 and hi if fun(hi) < 0; otherwise the Brent-Dekker
    zero finder (Brent 1973, ch. 4) keeps a bracket [b, c] with fun(b) and
    fun(c) on opposite sides of 0 and shrinks it by secant or inverse
    quadratic steps, or by bisection where those would not shrink it fast
    enough.  Every evaluation lies in [lo, hi].  Returns the evaluated end b
    of a bracket at most max(xtol, 4.4e-16 |b|) wide, so b lies within that
    of the sign change.  Where fun has the sign of a unimodal function's
    slope, the result is that function's minimizer on [lo, hi].
    """
    fa = fun(lo)
    if fa >= 0.0:
        return lo
    fb = fun(hi)
    if fb < 0.0:
        return hi
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = max(0.5 * xtol, 2.2e-16 * abs(b))  # never below float resolution at b
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fun(b)
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a


def _tq_slope(t_q: float, t_u: float, w_q: float, w_u: float, alpha: float) -> float:
    """The numerator's t_q-derivative at fixed t_u; zero at interior minimizers."""
    return (
        math.log(t_q / w_q)
        - math.log((t_u - t_q) / (w_u - w_q))
        - alpha * math.log(t_q * (1.0 - w_q) / (w_q * (1.0 - t_q)))
    )


def _inner_tq(t_u: float, w_q: float, w_u: float, alpha: float) -> float:
    """Exact inner minimizer over t_q at fixed t_u.

    The numerator's t_q-derivative (:func:`_tq_slope`) is strictly
    increasing on (0, t_u) for alpha in [0, 1], so the inner minimum is
    either its unique root or the t_q = 0 boundary when the derivative is
    nonnegative throughout (possible only at alpha = 1).  The root is found
    by Newton steps in x = log t_q, where the derivative's x-slope is
    1 + t_q/(t_u-t_q) - alpha/(1-t_q) > 0, falling back to bisection
    whenever a step leaves the sign bracket.
    """
    if t_u <= 0.0:
        return 0.0
    lo = math.log(max(t_u * 1e-18, 1e-280))
    hi = math.log(t_u) + math.log1p(-1e-14)
    if _tq_slope(math.exp(lo), t_u, w_q, w_u, alpha) >= 0.0:
        return 0.0
    if _tq_slope(math.exp(hi), t_u, w_q, w_u, alpha) <= 0.0:
        return math.exp(hi)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        t_q = math.exp(x)
        value = _tq_slope(t_q, t_u, w_q, w_u, alpha)
        step = value / (1.0 + t_q / (t_u - t_q) - alpha / (1.0 - t_q))
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            return math.exp(x - step)
        if value < 0.0:
            lo = x
        else:
            hi = x
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        if hi - lo <= 1e-15:
            break
    return math.exp(x)


def _log_ratio(x: float, ref: float, d: float) -> float:
    """log(x / ref) as log1p(d / ref) from d = x - ref, which keeps its relative
    precision where x is near ref; the direct form where x is below ref / 2."""
    ratio = d / ref
    return math.log1p(ratio) if ratio > -0.5 else math.log(x / ref)


def _tu_slope(t_q: float, t_u: float, w_q: float, w_u: float, alpha: float, value: float) -> float:
    """N_u - F D_u, which has the sign of the exact t_u profile's slope at t_u.

    F = value is the objective at the inner minimizer t_q, where its
    t_q-derivative is 0 (or t_q = 0 stays put), so by the envelope theorem
    the profile's t_u-derivative is F's partial one, (N_u - F D_u) / d(t_u||w_u),
    with N_u and D_u the t_u-derivatives of the numerator and of the
    denominator d(t_u||w_u) at fixed t_q.
    """
    tail = _log_ratio(1.0 - t_u, 1.0 - w_u, w_u - t_u)
    d_u = _log_ratio(t_u, w_u, t_u - w_u) - tail
    if 2.0 * t_q <= t_u:
        lead = _log_ratio(t_u - t_q, w_u - w_q, (t_u - w_u) - (t_q - w_q))
    else:
        lead = (1.0 - alpha) * _log_ratio(t_q, w_q, t_q - w_q) + alpha * _log_ratio(
            1.0 - t_q, 1.0 - w_q, w_q - t_q
        )
    return lead - tail - (1.0 - alpha + value) * d_u


def _side_minimum(w_q: float, w_u: float, alpha: float, sign: float):
    """(value, t_q, t_u) of min over t_u of F(_inner_tq(t_u), t_u) on one side of the band.

    sign = -1 searches t_u in [0, w_u - band], +1 searches [w_u + band, 1].
    With d = |t_u - w_u| and far the side's length, the search runs in
    x = log(d / (far - d)), which resolves the distance to the band and to
    the far end alike, from the band to _FAR_GAP * far short of the far end.
    It is the zero of the profile's slope in x, which has the sign of
    sign * _tu_slope, or the bracket end that slope points to.  The far end
    itself (t_u = 0, where t_q = 0 is forced, or t_u = 1) is tried too; the
    line t_u = w_u is left to _line_limit.
    """
    far = w_u if sign < 0 else 1.0 - w_u
    if far <= _EXCLUDE_BAND:
        return math.inf, w_q, w_u
    solved: dict[float, tuple[float, float]] = {}

    def solve(t_u: float) -> tuple[float, float]:
        t_q = _inner_tq(t_u, w_q, w_u, alpha) if t_u > 0.0 else 0.0
        solved[t_u] = _objective_scalar(t_q, t_u, w_q, w_u, alpha), t_q
        return solved[t_u]

    def t_u_at(x: float) -> float:
        return w_u + sign * far / (1.0 + math.exp(-x))

    def slope(x: float) -> float:
        t_u = t_u_at(x)
        value, t_q = solve(t_u)
        return sign * _tu_slope(t_q, t_u, w_q, w_u, alpha, value)

    # 1e-9 inside the bracket's band end, so that rounding keeps t_u out of the band.
    lo = math.log(_EXCLUDE_BAND / (far - _EXCLUDE_BAND)) + 1e-9
    t_u = t_u_at(_brent_zero(slope, lo, -math.log(_FAR_GAP), _SIDE_XTOL))
    end = 0.0 if sign < 0 else 1.0
    (value, t_q), (end_value, end_t_q) = solved[t_u], solve(end)
    if end_value <= value:
        return end_value, end_t_q, end
    return value, t_q, t_u


def _line_limit(w_q: float, w_u: float, alpha: float) -> float:
    """The objective's infimum along the excluded line t_u == w_u.

    Only at (w_q, w_u) does the numerator vanish with the denominator.  Along
    t_q - w_q = t (t_u - w_u), F tends to w_u(1-w_u)(A t^2 + B t + C) with
    A = 1/w_q + 1/(w_u-w_q) - alpha/(w_q(1-w_q)) > 0, B = -2/(w_u-w_q) and
    C = 1/(w_u-w_q) + 1/(1-w_u) - (1-alpha)/(w_u(1-w_u)); its minimum,
    w_u(1-w_u)(C - B^2/4A) at t = 1/((w_u-w_q)A), simplifies to this form.
    """
    gap = w_u - w_q
    return alpha * (1.0 - alpha) * gap / ((1.0 - alpha) * gap + w_q * (1.0 - w_u))


def minimize_objective(w_q: float, w_u: float, alpha: float) -> InfimumResult:
    """Global minimum of the objective over {0 <= t_q <= t_u <= 1, t_u != w_u}.

    The exact inner minimum over t_q (_inner_tq) at each t_u, minimized over
    t_u on each side of the excluded band (_side_minimum), or the limit along
    the excluded line (_line_limit) where that is lower or tied (within
    _TIE_RTOL).  At alpha 0 or 1 the limit is 0, and F >= 0, so it is the
    infimum without a search.
    """
    if not 0.0 < w_q < w_u < 1.0:
        raise ValueError("parameters must satisfy 0 < w_q < w_u < 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    limit = _line_limit(w_q, w_u, alpha)
    if limit == 0.0:
        return InfimumResult(limit, w_q, w_u)
    value, t_q, t_u = min(_side_minimum(w_q, w_u, alpha, -1.0), _side_minimum(w_q, w_u, alpha, 1.0))
    if limit <= value * (1.0 + _TIE_RTOL):
        return InfimumResult(limit, w_q, w_u)
    return InfimumResult(value, t_q, t_u)


# ---------------------------------------------------------------------------
# The numeric lower-bound curve: maximize over the weight alpha
# ---------------------------------------------------------------------------


def _check_rho_u(rho_u: float) -> None:
    if not (math.isfinite(rho_u) and rho_u >= 0):
        raise ValueError(f"space exponent rho_u must be finite and nonnegative (got {rho_u!r})")


def _g_u(infimum: InfimumResult, w_q: float, w_u: float, alpha: float) -> float:
    """g_u at the infimum's point: the bound's alpha-slope is (rho_u - g_u) / alpha^2.

    On the excluded line it is g_u's limit along the infimum's direction,
    w_u(1-w_u)(A t^2 + B t + C) with _line_limit's A and C at alpha = 0 and
    t = 1/((w_u-w_q)A) at this alpha, which simplifies to
    alpha^2 w_q (1-w_u)(w_u-w_q) / den^2 with den _line_limit's denominator.
    """
    if infimum.t_u == w_u:
        gap = w_u - w_q
        den = (1.0 - alpha) * gap + w_q * (1.0 - w_u)
        return alpha * alpha * gap / den * (w_q * (1.0 - w_u) / den)  # den * den can underflow
    return _objective_scalar(infimum.t_q, infimum.t_u, w_q, w_u, 0.0)


# alpha_boundary needs the bound's slope at alpha = 0.01, times 0.01, to fall
# by more than this relative to the bound.  At rho_u = 0 the bound is often
# flat there (the minimizer is the corner t_q = t_u = 0, where g_u = 0), and
# without the tolerance the last bits of g_u set the flag.
_FLAT_RTOL = 1e-9


@dataclass(frozen=True)
class LowerBoundResult:
    rho_q: float
    alpha: float
    alpha_boundary: bool  # peak at the smallest alpha searched, 0.01 (see _FLAT_RTOL)
    clamped: bool  # raw bound fell outside [0, 1]
    infimum: InfimumResult


def query_exponent_lower_bound(w_q: float, w_u: float, rho_u: float) -> LowerBoundResult:
    """Best achievable bound rho_q >= max_alpha (inf F(alpha) - (1-alpha) rho_u)/alpha.

    By the envelope theorem the bound's alpha-derivative is (rho_u - g_u)/alpha^2,
    with g_u at the infimum's point (_g_u); inf F is an infimum of functions
    affine in alpha, so it is concave and g_u does not decrease.  The bound
    thus has one peak on [0.01, 1], where g_u - rho_u turns nonnegative:
    Brent's zero finder finds it to 1e-6 in alpha, with one
    minimize_objective solve per step, and the best bound among the alphas
    solved is reported.  The result is clamped to [0, 1].
    """
    _check_rho_u(rho_u)
    solves: dict[float, InfimumResult] = {}

    def bound(alpha: float) -> float:
        return (solves[alpha].value - (1.0 - alpha) * rho_u) / alpha

    def falling(alpha: float) -> float:
        solves[alpha] = minimize_objective(w_q, w_u, alpha)
        return _g_u(solves[alpha], w_q, w_u, alpha) - rho_u

    lo = 0.01
    _brent_zero(falling, lo, 1.0, xtol=1e-6)
    best_alpha = max(solves, key=bound)
    raw = bound(best_alpha)
    at_boundary = _g_u(solves[lo], w_q, w_u, lo) - rho_u > lo * _FLAT_RTOL * abs(raw)
    clamped = not 0.0 <= raw <= 1.0
    rho_q = min(1.0, max(0.0, raw))
    return LowerBoundResult(rho_q, best_alpha, at_boundary, clamped, solves[best_alpha])


# ---------------------------------------------------------------------------
# Closed-form curves
# ---------------------------------------------------------------------------


def required_w_q(w_u: float, s: float) -> float:
    """Query density that makes the reduction exact: w_u * (1 - e^{-1/(s*w_u)})."""
    return w_u * -math.expm1(-1.0 / (s * w_u))


def gapss_explicit_bound(w_q: float, rho_u: float) -> float:
    """Explicit lower bound at query density w_q (small-density regime):

    1 - w_q^{1 - log 2} + rho_u / (1 + log w_q), vanishing-order terms dropped.
    """
    if not 0.0 < w_q < 1.0 / math.e:
        raise ValueError("query density must lie in (0, 1/e)")
    _check_rho_u(rho_u)
    return 1.0 - w_q ** (1.0 - LOG2) + rho_u / (1.0 + math.log(w_q))


def analytic_lower_bound(s: float, rho_u: float) -> float:
    """Closed-form lower bound on the query exponent at sample ratio s:

    1 - s^{-(1 - log 2)} - rho_u / (log s - 1), vanishing-order terms dropped.
    """
    if not (math.isfinite(s) and s > math.e):
        raise ValueError(f"sample-ratio parameter must be finite and exceed e (got {s!r})")
    _check_rho_u(rho_u)
    return 1.0 - s ** -(1.0 - LOG2) - rho_u / (math.log(s) - 1.0)


def upper_exponent(s: float, rho_u: float, epsilon: float, simplified: bool = False) -> float:
    """Query-time exponent achieved by the probe-subset index.

    Exact form 1 + rho_u log(1 - eps/2) / log(2/(1 - e^{-2/s})); the
    simplified form replaces both logs by their bounds, giving
    1 - eps*rho_u / (2 log(2s)).  At eps = 2 the exact power term diverges
    to -inf and the exponent is clamped at 0.
    """
    if not (math.isfinite(s) and s >= 2):
        raise ValueError(f"sample-ratio parameter must be finite and at least 2 (got {s!r})")
    if not 0 < epsilon <= 2:
        raise ValueError(f"separation must be in (0, 2] (got {epsilon!r})")
    _check_rho_u(rho_u)
    if simplified:
        return 1.0 - epsilon * rho_u / (2.0 * math.log(2.0 * s))
    if epsilon == 2.0:
        return 0.0 if rho_u > 0 else 1.0
    base = 2.0 / -math.expm1(-2.0 / s)
    return 1.0 + rho_u * math.log1p(-epsilon / 2.0) / math.log(base)


# ---------------------------------------------------------------------------
# Curve emission
# ---------------------------------------------------------------------------

CURVES = (
    "numeric-lop",
    "analytic-lower",
    "explicit-gapss",
    "upper-half-uniform",
    "upper-simplified",
    "prior-general",
)

DEFAULT_CURVES = (
    "numeric-lop",
    "analytic-lower",
    "upper-half-uniform",
    "upper-simplified",
)


@dataclass(frozen=True)
class TradeoffPoint:
    curve: str
    s: float
    inv_s: float
    w_q: float
    rho_u: float
    rho_q: float
    flags: str = ""


def _clamp_unit(value: float, flags: list[str]) -> float:
    if not 0.0 <= value <= 1.0:
        flags.append("clamped")
        return min(1.0, max(0.0, value))
    return value


def tradeoff_rows(
    rho_u: float,
    s_values,
    epsilon: float = 1.0,
    w_u: float = 0.5,
    curves=DEFAULT_CURVES,
    prior_constant: float | None = None,
) -> list[TradeoffPoint]:
    """One row per (sample ratio, curve); query densities follow the reduction map.

    numeric-lop rows come from query_exponent_lower_bound, flagged
    alpha-boundary when its peak is at the smallest alpha searched, 0.01, and
    not flat there (see _FLAT_RTOL).
    The prior-general curve (1 - const * eps^2 / s) needs its leading
    constant supplied explicitly; only an asymptotic order is published for
    it, so no default is invented here.
    """
    unknown = set(curves) - set(CURVES)
    if unknown:
        raise ValueError(f"unknown curves: {sorted(unknown)}")
    _check_rho_u(rho_u)
    const = prior_constant
    if "prior-general" in curves and not (const is not None and math.isfinite(const) and const > 0):
        raise ValueError(f"prior-general needs a finite prior_constant > 0 (got {const!r})")
    if not (0.0 < w_u <= 1.0 and 0.0 < epsilon <= 2.0):
        raise ValueError(f"need 0 < w_u <= 1 and 0 < epsilon <= 2 (got {w_u!r}, {epsilon!r})")
    if "numeric-lop" in curves and w_u == 1.0:
        raise ValueError("the numeric-lop curve needs w_u < 1 (got w_u = 1.0)")
    rows: list[TradeoffPoint] = []
    for s in s_values:
        s = float(s)
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"sample ratio s must be finite and positive (got {s!r})")
        w_q = required_w_q(w_u, s)
        for curve in curves:
            flags: list[str] = []
            if curve == "numeric-lop":
                if not w_q < w_u:
                    raise ValueError(
                        f"sample ratio s = {s!r} is too small: its query density "
                        f"w_u * (1 - e^(-1/(s*w_u))) rounds to w_u = {w_u!r}"
                    )
                res = query_exponent_lower_bound(w_q, w_u, rho_u)
                rho_q = res.rho_q
                if res.alpha_boundary:
                    flags.append("alpha-boundary")
                if res.clamped:
                    flags.append("clamped")
            elif curve == "analytic-lower":
                flags.append("o1-dropped")
                rho_q = _clamp_unit(analytic_lower_bound(s, rho_u), flags)
            elif curve == "explicit-gapss":
                flags.append("o1-dropped")
                rho_q = _clamp_unit(gapss_explicit_bound(w_q, rho_u), flags)
            elif curve == "upper-half-uniform":
                if epsilon == 2.0:
                    flags.append("eps2-clamped")
                rho_q = _clamp_unit(upper_exponent(s, rho_u, epsilon), flags)
            elif curve == "upper-simplified":
                rho_q = _clamp_unit(upper_exponent(s, rho_u, epsilon, simplified=True), flags)
            else:  # prior-general
                flags.append("user-constant")
                rho_q = _clamp_unit(1.0 - prior_constant * epsilon**2 / s, flags)
            rows.append(
                TradeoffPoint(curve, s, 1.0 / s, w_q, rho_u, rho_q, ";".join(flags))
            )
    return rows
