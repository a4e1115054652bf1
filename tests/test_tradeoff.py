"""Divergences, the ratio objective, its minimization, and the curve family."""

import decimal
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude.distributions import read_rows, write_rows
from hude.instances import required_w_q
from hude.tradeoff import (
    InfimumResult,
    TradeoffPoint,
    analytic_lower_bound,
    coupling_kl,
    gapss_explicit_bound,
    kl_binary,
    minimize_objective,
    objective,
    objective_from_divergences,
    query_exponent_lower_bound,
    tradeoff_rows,
    upper_exponent,
)

LOG2 = math.log(2.0)


class TestKlBinary:
    def test_identity_is_zero(self):
        assert kl_binary(0.5, 0.5) == 0.0

    def test_point_mass_against_half(self):
        assert kl_binary(1.0, 0.5) == pytest.approx(LOG2, rel=1e-15)

    def test_zero_against_quarter(self):
        assert kl_binary(0.0, 0.25) == pytest.approx(math.log(4.0 / 3.0), rel=1e-15)

    def test_infinite_sentinels(self):
        assert kl_binary(0.3, 0.0) == math.inf
        assert kl_binary(0.3, 1.0) == math.inf
        assert kl_binary(0.0, 0.0) == 0.0
        assert kl_binary(1.0, 1.0) == 0.0
        # The same edges in one array call, then NaN in each argument: NaN out,
        # and no warning.
        p = [0.3, 0.3, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, math.nan, 0.5, math.nan, 0.0, 1.0]
        q = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.25, 0.5, 0.5, math.nan, 0.0, math.nan, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kl_binary(np.array(p), np.array(q))
            assert math.isnan(kl_binary(0.5, math.nan)) and math.isnan(kl_binary(math.nan, 0.5))
        assert got[:6].tolist() == [math.inf, math.inf, 0.0, 0.0, math.inf, math.inf]
        assert got[6:8].tolist() == pytest.approx([math.log(4.0 / 3.0), LOG2], rel=1e-15)
        assert np.isnan(got[8:]).all()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kl_binary(1.5, 0.5)
        with pytest.raises(ValueError):
            kl_binary(0.5, -0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.001, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, p, q):
        assert kl_binary(p, q) >= 0.0

    # Just outside the series band, where the direct form cancels; then each mirrored.
    CLOSE = [(1.021e-5, 1e-5), (1.021e-3, 1e-3), (0.6e-5, 1e-5), (1.9e-5, 1e-5), (0.3, 0.2)]
    # Further out, where the direct form cancels for small q or at p = 1.
    FAR = [(2e-5, 1e-5), (2.01e-8, 1e-8), (2e-12, 1e-12), (3e-12, 1e-12),
           (1.0 - 2.01e-8, 1.0 - 1e-8), (1.0, 0.999999999999)]

    @pytest.mark.parametrize("p, q", CLOSE + [(1.0 - p, 1.0 - q) for p, q in CLOSE] + FAR)
    def test_matches_60_digit_reference(self, p, q):
        from hude.tradeoff import _kl_scalar

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            p60, q60 = decimal.Decimal(p), decimal.Decimal(q)
            expected = _xlog_ratio_60(p60, q60) + _xlog_ratio_60(1 - p60, 1 - q60)
        for got in (kl_binary(p, q), kl_binary(np.array([p]), q)[0], _kl_scalar(p, q)):
            assert abs(decimal.Decimal(float(got)) - expected) <= decimal.Decimal(1e-13) * expected


    @pytest.mark.parametrize("p, q", [(0.5, 5e-324), (0.5, 1e-310), (0.3, 2.5e-320)])
    def test_subnormal_reference_matches_60_digit_reference(self, p, q):
        # d / q overflows, so the term is taken as p (log p - log q).
        from hude.tradeoff import _kl_scalar

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            p60, q60 = decimal.Decimal(p), decimal.Decimal(q)
            expected = _xlog_ratio_60(p60, q60) + _xlog_ratio_60(1 - p60, 1 - q60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [kl_binary(p, q), kl_binary(np.array([p]), q)[0], _kl_scalar(p, q)]
        for value in got:
            assert abs(decimal.Decimal(float(value)) - expected) <= decimal.Decimal(1e-13) * expected


class TestCouplingKl:
    def test_equal_laws_are_zero(self):
        assert coupling_kl(0.01, 0.5, 0.01, 0.5) == 0.0

    def test_zero_query_marginal_value(self):
        # At t_q=0, t_u=w_u=1/2: only the middle cell contributes
        # w_u log(w_u / (w_u - w_q)).
        got = coupling_kl(0.0, 0.5, 0.01, 0.5)
        assert got == pytest.approx(0.5 * math.log(0.5 / 0.49), rel=1e-12)
        assert got == pytest.approx(0.0101013, abs=1e-7)

    def test_nonnegative_on_random_points(self):
        rng = np.random.default_rng(5)
        points = []
        for _ in range(10_000):
            w_q = rng.uniform(0.01, 0.45)
            w_u = rng.uniform(w_q + 0.01, 0.99)
            t_u = rng.uniform(0.0, 1.0)
            t_q = rng.uniform(0.0, t_u)
            points.append((t_q, t_u, w_q, w_u))
        # One elementwise evaluation over all points.
        assert np.all(coupling_kl(*np.asarray(points).T) >= 0.0)


class TestObjective:
    def test_two_codings_agree(self):
        rng = np.random.default_rng(11)
        points = []
        for _ in range(10_000):
            w_q = rng.uniform(0.001, 0.4)
            w_u = rng.uniform(w_q + 0.05, 0.95)
            t_u = rng.uniform(0.0, 1.0)
            if abs(t_u - w_u) < 0.05:
                continue
            t_q = rng.uniform(0.0, t_u)
            alpha = rng.uniform(0.0, 1.0)
            points.append((t_q, t_u, w_q, w_u, alpha))
        # Each coding evaluated once over all points, elementwise.
        columns = np.asarray(points).T
        a = objective(*columns)
        b = objective_from_divergences(*columns)
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))

    def test_internal_evaluation_matches_public_codings(self):
        # The public objective maps the solver's scalar coding over its
        # arguments, so the two must agree away from the removed line.
        from hude.tradeoff import _objective_scalar

        rng = np.random.default_rng(12)
        for _ in range(2000):
            w_q = rng.uniform(0.001, 0.4)
            w_u = rng.uniform(w_q + 0.05, 0.95)
            t_u = rng.uniform(0.0, 1.0)
            if abs(t_u - w_u) < 0.05:
                continue
            t_q = rng.uniform(0.0, t_u)
            a = objective(t_q, t_u, w_q, w_u, 0.4)
            b = _objective_scalar(t_q, t_u, w_q, w_u, 0.4)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b))

    def test_zero_query_endpoint_closed_form(self):
        # F(t_u, 0) = alpha + (alpha log(1-w_q) - t_u log(1-2 w_q)) / d(t_u || 1/2)
        # at w_u = 1/2.
        w_q = 0.01
        alpha = 1.0 + 1.0 / math.log(w_q)
        for t_u in np.linspace(0.02, 0.98, 97):
            if abs(t_u - 0.5) < 1e-9:
                continue
            closed = alpha + (
                alpha * math.log(1.0 - w_q) - t_u * math.log(1.0 - 2.0 * w_q)
            ) / kl_binary(t_u, 0.5)
            assert objective(0.0, t_u, w_q, 0.5, alpha) == pytest.approx(closed, abs=1e-10)

    def test_finite_along_matched_query_marginal(self):
        for t_u in np.linspace(0.05, 0.95, 19):
            if abs(t_u - 0.5) < 1e-9 or t_u <= 0.02:
                continue
            value = objective(0.02, t_u, 0.02, 0.5, 0.7)
            assert math.isfinite(value)

    def test_denominator_zero_rejected(self):
        with pytest.raises(ValueError):
            objective(0.01, 0.5, 0.02, 0.5, 0.5)
        # Off the line a denominator that underflows to 0 gives +inf.
        assert objective(0.0, 1e-300 * (1.0 + 2.0**-40), 1e-301, 1e-300, 0.5) == math.inf

    @pytest.mark.parametrize("t_q, t_u", [(1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (0.3, 1.0)])
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_corners_match_definition(self, t_q, t_u, alpha):
        # At t_q = 1 the chain rule's (t_u - t_q) / (1 - t_q) is 0/0.
        a = objective(t_q, t_u, 0.02, 0.5, alpha)
        b = objective_from_divergences(t_q, t_u, 0.02, 0.5, alpha)
        assert math.isfinite(a)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_outside_triangle_rejected(self):
        for t_q, t_u in ((-0.1, 0.3), (0.4, 0.3), (0.2, 1.1)):
            with pytest.raises(ValueError):
                objective(t_q, t_u, 0.02, 0.5, 0.5)
        for w_q, w_u in ((-0.1, 0.5), (0.6, 0.5), (0.3, 1.2)):
            with pytest.raises(ValueError):
                objective(0.1, 0.3, w_q, w_u, 0.5)


class TestMinimizeObjective:
    def test_small_density_lower_inequality(self):
        # At the theoretically motivated weight the infimum clears
        # alpha - w_q^{1 - log 2 - 0.1}.
        w_q = 1e-3
        alpha = 1.0 + 1.0 / math.log(w_q)
        result = minimize_objective(w_q, 0.5, alpha)
        assert result.value >= alpha - w_q ** (1.0 - LOG2 - 0.1)

    def test_interior_argmin_satisfies_first_order_condition(self):
        from hude.tradeoff import _tq_slope

        for w_q in (1e-3, 0.0476):
            alpha = 1.0 + 1.0 / math.log(w_q)
            result = minimize_objective(w_q, 0.5, alpha)
            assert 0.0 < result.t_q < result.t_u
            slope = _tq_slope(result.t_q, result.t_u, w_q, 0.5, alpha)
            assert abs(slope) <= 1e-4

    def test_stable_under_tighter_side_search(self, monkeypatch):
        import hude.tradeoff as tradeoff

        w_q = required_w_q(0.5, 100.0)
        alpha = 1.0 + 1.0 / math.log(w_q)
        default = minimize_objective(w_q, 0.5, alpha)
        monkeypatch.setattr(tradeoff, "_SIDE_XTOL", 1e-9)
        tight = minimize_objective(w_q, 0.5, alpha)
        assert default.value == pytest.approx(tight.value, rel=1e-12, abs=0.0)

    def test_nonnegative_infimum(self):
        # The numerator is a mix of conditional divergences, so the
        # objective cannot be negative anywhere feasible.
        for alpha in (0.2, 0.6, 1.0):
            result = minimize_objective(0.05, 0.5, alpha)
            assert result.value >= 0.0

    @pytest.mark.parametrize("w_q", [1e-3, 1e-4, 1e-5, 0.05])
    def test_reported_value_is_objective_at_reported_point(self, w_q):
        # The value the solver reports must be the public objective there.
        from hude.tradeoff import _line_limit

        bound = query_exponent_lower_bound(w_q, 0.5, 0.5)
        cases = [(bound.infimum, bound.alpha)]
        for alpha in (0.0, 0.5, 1.0, 1.0 + 1.0 / math.log(w_q)):
            cases.append((minimize_objective(w_q, 0.5, alpha), alpha))
        for res, alpha in cases:
            if res.t_u == 0.5:  # the limit along the excluded line, where objective raises
                assert res.value == _line_limit(w_q, 0.5, alpha), (alpha, res)
                continue
            value = objective(res.t_q, res.t_u, w_q, 0.5, alpha)
            assert abs(value - res.value) <= 1e-14 * max(1.0, abs(res.value)), (alpha, res)

    def test_zero_weight_infimum_is_zero(self):
        # At alpha = 0, F = g_u >= 0 vanishes at t_q = t_u = 0.
        for w_q in (1e-3, 0.05):
            result = minimize_objective(w_q, 0.5, 0.0)
            assert result.value == 0.0
            assert 0.0 <= result.t_q <= result.t_u <= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            minimize_objective(0.5, 0.4, 0.5)
        with pytest.raises(ValueError):
            minimize_objective(0.1, 0.5, 1.5)


def _xlog_ratio_60(x, ref):
    return decimal.Decimal(0) if x == 0 else x * (x / ref).ln()


def _objective_60(t_q, t_u, w_q, w_u, alpha):
    """The objective from its definition, in 60-digit decimal arithmetic on
    the exact values of the float arguments (see objective_from_divergences)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t_q, t_u, w_q, w_u, alpha = map(decimal.Decimal, (t_q, t_u, w_q, w_u, alpha))
        big = (
            _xlog_ratio_60(t_q, w_q)
            + _xlog_ratio_60(t_u - t_q, w_u - w_q)
            + _xlog_ratio_60(1 - t_u, 1 - w_u)
        )
        d_u = _xlog_ratio_60(t_u, w_u) + _xlog_ratio_60(1 - t_u, 1 - w_u)
        d_q = _xlog_ratio_60(t_q, w_q) + _xlog_ratio_60(1 - t_q, 1 - w_q)
        return (alpha * (big - d_q) + (1 - alpha) * (big - d_u)) / d_u


def _line_terms_60(w_q, w_u, alpha):
    """(A, B, C) of the objective's second-order limit at the line t_u == w_u,
    F -> w_u(1-w_u)(A t^2 + B t + C) along t_q - w_q = t (t_u - w_u), in
    60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w_q, w_u, alpha = map(decimal.Decimal, (w_q, w_u, alpha))
        a = 1 / w_q + 1 / (w_u - w_q) - alpha / (w_q * (1 - w_q))
        b = -2 / (w_u - w_q)
        c = 1 / (w_u - w_q) + 1 / (1 - w_u) - (1 - alpha) / (w_u * (1 - w_u))
        return a, b, c


def _line_limit_60(w_q, w_u, alpha):
    """The limit's minimum over t, w_u(1-w_u)(C - B^2/4A), to 60 digits."""
    a, b, c = _line_terms_60(w_q, w_u, alpha)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        w_u = decimal.Decimal(w_u)
        return w_u * (1 - w_u) * (c - b * b / (4 * a))


class TestSolverPrecision:
    """The solver's values against 60-digit arithmetic at its own points.

    Next to the excluded line both the numerator and the denominator of the
    objective vanish, so a coding that cancels there reports values below the
    true objective; a search that settles there then looks like a minimum.
    """

    @pytest.mark.parametrize("w_u", [0.3, 0.5, 0.7])
    def test_reported_value_matches_60_digit_objective(self, w_u):
        # w_q from 1e-5 w_u to 0.9 w_u and alpha from 0 to 1; the limit along
        # the line wins some of these cases.
        for w_q, alpha in itertools.product(
            (w_u * 1e-5, w_u * 1e-3, w_u * 0.1, w_u * 0.9), (0.0, 0.25, 0.5, 0.7, 0.85, 1.0)
        ):
            res = minimize_objective(w_q, w_u, alpha)
            if res.t_u == w_u:
                assert res.t_q == w_q
                expected = _line_limit_60(w_q, w_u, alpha)
            else:
                expected = _objective_60(res.t_q, res.t_u, w_q, w_u, alpha)
            error = abs(decimal.Decimal(res.value) - expected)
            assert error <= max(decimal.Decimal(1e-11) * abs(expected), decimal.Decimal(1e-15)), (
                w_q, alpha, res, float(expected)
            )

    @pytest.mark.parametrize("w_u", [0.3, 0.5, 0.7])
    def test_line_limit_is_the_objective_next_to_the_line(self, w_u):
        # Along the limiting direction t* = 1/((w_u - w_q) A), 1e-9 from the
        # line on either side, the objective is the limit up to O(1e-9)
        # relative; the closed form is w_u(1-w_u)(C - B^2/4A) to 1e-14.
        from hude.tradeoff import _line_limit

        for w_q, alpha, step in itertools.product(
            (w_u * 1e-5, w_u * 1e-3, w_u * 0.1, w_u * 0.9), (0.25, 0.5, 0.85), (-1e-9, 1e-9)
        ):
            a, _, _ = _line_terms_60(w_q, w_u, alpha)
            slope = float(1 / ((decimal.Decimal(w_u) - decimal.Decimal(w_q)) * a))
            near = _objective_60(w_q + slope * step, w_u + step, w_q, w_u, alpha)
            limit = decimal.Decimal(_line_limit(w_q, w_u, alpha))
            assert abs(limit - near) <= decimal.Decimal(1e-7) * near, (w_q, alpha, step)
            assert abs(limit - _line_limit_60(w_q, w_u, alpha)) <= decimal.Decimal(1e-14) * near

    @pytest.mark.parametrize("w_q", [1e-5, 1e-4, 1e-3, 0.05])
    def test_line_limit_at_half_weight_and_half_density(self, w_q):
        # At alpha = w_u = 1/2 the limit is w_u - w_q, worked out by hand; the
        # solver's minimum there is no lower, so it reports the limit.
        from hude.tradeoff import _line_limit

        assert _line_limit(w_q, 0.5, 0.5) == pytest.approx(0.5 - w_q, rel=1e-15)
        assert float(_line_limit_60(w_q, 0.5, 0.5)) == pytest.approx(0.5 - w_q, rel=1e-15)
        assert minimize_objective(w_q, 0.5, 0.5) == InfimumResult(
            _line_limit(w_q, 0.5, 0.5), w_q, 0.5
        )


class TestQueryExponentBound:
    def test_nonincreasing_in_space_exponent(self):
        w_q = required_w_q(0.5, 50.0)
        values = [
            query_exponent_lower_bound(w_q, 0.5, rho_u).rho_q for rho_u in (0.0, 0.25, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_zero_space_reduces_to_pure_ratio(self):
        # With no space term the bound is max over alpha of inf/alpha, which
        # upper-bounds every (inf - (1-alpha) rho)/alpha value.
        w_q = required_w_q(0.5, 50.0)
        zero = query_exponent_lower_bound(w_q, 0.5, 0.0)
        half = query_exponent_lower_bound(w_q, 0.5, 0.5)
        assert zero.rho_q >= half.rho_q

    def test_sits_between_closed_form_curves(self):
        # The acceptance suite sweeps the full grid; spot-check here down to
        # s=10, below the grid's left edge.
        for s in (10.0, 50.0):
            bound = query_exponent_lower_bound(required_w_q(0.5, s), 0.5, 0.5)
            assert bound.rho_q >= analytic_lower_bound(s, 0.5) - 0.02
            assert bound.rho_q <= upper_exponent(s, 0.5, 1.0) + 0.02

    def test_result_is_clamped(self):
        bound = query_exponent_lower_bound(required_w_q(0.5, 30.0), 0.5, 0.5)
        assert 0.0 <= bound.rho_q <= 1.0

    def test_extreme_sample_ratio(self):
        # At s = 1e300, w_q is about 1e-300, and the line limit's g_u must not
        # square its denominator, which would underflow to 0.
        s = 1e300
        bound = query_exponent_lower_bound(required_w_q(0.5, s), 0.5, 0.5)
        assert bound.infimum.t_u == 0.5
        assert bound.rho_q >= analytic_lower_bound(s, 0.5) - 0.02
        assert bound.rho_q <= upper_exponent(s, 0.5, 1.0) + 0.02

    @pytest.mark.parametrize("s, rho_u", [(20.0, 0.5), (50.0, 0.0), (1000.0, 1.0)])
    def test_infimum_is_minimize_objective_at_winning_alpha(self, s, rho_u):
        # The alpha search keeps each alpha's solve and reports the winner's;
        # it must be the standalone solve's.
        w_q = required_w_q(0.5, s)
        result = query_exponent_lower_bound(w_q, 0.5, rho_u)
        assert result.infimum == minimize_objective(w_q, 0.5, result.alpha)

    @pytest.mark.parametrize("w_u, s_index", [(0.5, 7), (0.3, 4), (0.55, 4)])
    def test_flat_bound_is_not_an_alpha_boundary(self, w_u, s_index):
        # At rho_u = 0 the infimum here sits at the t_u = 0 corner, where F is
        # linear in alpha, so the bound is flat from alpha = 0.01 on; its last
        # bits flagged s = 27,204 at w_u = 1/2 and not s = 547.7 at w_u = 0.3,
        # and without a tolerance they flag s = 547.7 at w_u = 0.55.
        s = float(np.geomspace(3.0, 1e5, 9)[s_index])
        (row,) = tradeoff_rows(0.0, [s], w_u=w_u, curves=("numeric-lop",))
        assert row.flags == ""

    def test_falling_bound_is_an_alpha_boundary(self):
        # At w_u = 0.05 the bound falls by 2.3e-5 relative from alpha = 0.01
        # to 0.0105, so its peak lies below the range searched.
        bound = query_exponent_lower_bound(0.025, 0.05, 0.0)
        assert bound.alpha == 0.01 and bound.alpha_boundary

    def test_mildly_falling_bound_is_an_alpha_boundary(self):
        # Here the bound falls by only 4.7e-7 relative from alpha = 0.01 to
        # 0.0105, and Brent's nearest alpha is about 5.4e-7 above 0.01: the
        # bound differs there by far less than 1e-9, but its slope does not.
        bound = query_exponent_lower_bound(0.05, 0.1, 0.0)
        assert bound.alpha == 0.01 and bound.alpha_boundary

    def test_not_below_exact_solves_near_the_peak(self):
        # Here the peak is at alpha = 0.840 (bound 0.0178548 at 0.84), between
        # points of a 102-alpha grid whose coarse scan picked 0.8515 (0.0175117).
        w_q = required_w_q(0.3, float(np.geomspace(3.0, 1e5, 9)[2]))
        best = max(
            (minimize_objective(w_q, 0.3, a).value - (1.0 - a) * 2.0) / a
            for a in np.linspace(0.80, 0.90, 21).tolist()
        )
        assert query_exponent_lower_bound(w_q, 0.3, 2.0).rho_q >= best - 1e-12


class TestPinnedCurve:
    """numeric-lop values recorded before the solver's search was reworked.

    A change to how the infimum and the alpha maximum are searched must not
    move the curve by more than 1e-8.
    """

    def test_benchmark_grid(self):
        recorded = [
            0.6175995772093339,
            0.7859301502557483,
            0.8648933195616396,
            0.9058975679377584,
            0.9294686566208912,
        ]
        for s, expected in zip(np.geomspace(20.0, 10_000.0, 5), recorded):
            got = query_exponent_lower_bound(required_w_q(0.5, float(s)), 0.5, 0.5).rho_q
            assert got == pytest.approx(expected, abs=1e-8), f"s={s}"

    def test_reduced_options_at_s50(self):
        recorded = {
            0.0: 0.9714346189565164,
            0.25: 0.8189667248531264,
            0.5: 0.7324508918493748,
            1.0: 0.5950571273169263,
        }
        w_q = required_w_q(0.5, 50.0)
        for rho_u, expected in recorded.items():
            got = query_exponent_lower_bound(w_q, 0.5, rho_u)
            assert got.rho_q == pytest.approx(expected, abs=1e-8), f"rho_u={rho_u}"


def _inner_tq_bisection(u, w_q, w_u, alpha):
    """Reference inner minimizer over t_q, vectorized over t_u = u.

    Bisection in log t_q on the t_q-derivative of the numerator (increasing
    on (0, t_u)), or t_q = 0 when that derivative is nonnegative throughout.
    """

    def h(t):
        return (
            np.log(t / w_q)
            - np.log((u - t) / (w_u - w_q))
            - alpha * np.log(t * (1.0 - w_q) / (w_q * (1.0 - t)))
        )

    lo = np.log(u) - 60.0
    hi = np.log(u) + np.log1p(-1e-13)
    at_zero = h(np.exp(lo)) >= 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = h(np.exp(mid)) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(at_zero, 0.0, np.exp(0.5 * (lo + hi)))


def _dense_outer_scan(w_q, w_u, alpha, points=20_001):
    """Brute-force min over a dense t_u grid of min over t_q of the objective.

    Values come from the definitional coding; stays 0.01 away from
    t_u = w_u.  Returns the minimum and its t_u.
    """
    u = np.linspace(0.0, 1.0, points)[1:-1]
    u = u[np.abs(u - w_u) >= 0.01]
    t_q = _inner_tq_bisection(u, w_q, w_u, alpha)
    values = objective_from_divergences(t_q, u, w_q, w_u, alpha)
    best = int(np.argmin(values))
    return float(values[best]), float(u[best])


def _golden_min(fun, lo, hi, iters=80):
    """Golden-section minimum of a unimodal scalar function on [lo, hi].

    A reference independent of the solver's Brent search: one new evaluation
    per step, stopping once the bracket is narrower than 1e-14 relative.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if b - a <= 1e-14 * max(abs(a), abs(b), 1e-12):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fun(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


class TestInfimumOracle:
    @pytest.mark.parametrize(
        "w_q, alpha",
        [
            (required_w_q(0.5, 20.0), 0.722491),
            (1e-3, 1.0 + 1.0 / math.log(1e-3)),
            (0.2, 0.3),
            # At alpha = 1 the inner minimum sits on the t_q = 0 edge for
            # every t_u up to (w_u - w_q)/(1 - w_q).
            (0.05, 1.0),
        ],
    )
    def test_not_above_dense_scan(self, w_q, alpha):
        got = minimize_objective(w_q, 0.5, alpha).value
        assert got <= _dense_outer_scan(w_q, 0.5, alpha)[0] + 1e-10

    def test_reaches_the_t_u_one_corner(self):
        # The minimum over t_u is at t_u = 1, which a search inside an
        # interval only approaches: one that stopped at t_u = 0.99999999906
        # reported 0.31278502442.
        from hude.tradeoff import _inner_tq

        w_q, w_u, alpha = required_w_q(0.7, 1e5), 0.7, 0.99
        t_q = _inner_tq(1.0, w_q, w_u, alpha)
        corner = objective_from_divergences(t_q, 1.0, w_q, w_u, alpha)
        res = minimize_objective(w_q, w_u, alpha)
        assert res.value <= corner + 1e-14
        assert res.t_u == 1.0

    def test_inner_root_matches_bisection(self):
        from hude.tradeoff import _inner_tq

        rng = np.random.default_rng(13)
        points = []
        for _ in range(300):
            w_q = float(rng.uniform(1e-4, 0.3))
            w_u = float(rng.uniform(w_q + 0.05, 0.95))
            alpha = float(rng.choice([rng.uniform(0.0, 1.0), 1.0]))
            points.append((rng.uniform(1e-3, 1.0), w_q, w_u, alpha))
        # The reference bisects every point at once, elementwise.
        columns = np.asarray(points).T
        expected = _inner_tq_bisection(*columns)
        got = [_inner_tq(*point) for point in points]
        assert got == pytest.approx(expected.tolist(), rel=1e-12, abs=0.0)

    def test_minimum_reaches_scan_plus_golden(self):
        # A windowed search from a coarse-grid point once landed within about
        # 1e-12 of its window's edge here, while the true minimum lay outside.
        from hude.tradeoff import _inner_tq, _objective_scalar

        w_q, w_u, alpha = required_w_q(0.5, 20.0), 0.5, 0.722491
        res = minimize_objective(w_q, w_u, alpha)
        value, t_u = res.value, res.t_u

        def outer(u):
            return _objective_scalar(_inner_tq(u, w_q, w_u, alpha), u, w_q, w_u, alpha)

        _, u_scan = _dense_outer_scan(w_q, w_u, alpha)
        _, reference = _golden_min(outer, u_scan - 1e-4, u_scan + 1e-4)
        assert abs(value - reference) <= 1e-12
        assert t_u == pytest.approx(0.887873, abs=1e-6)


class TestSideSearch:
    """`_side_minimum`, one side of the band t_u = w_u at a time."""

    @staticmethod
    def side_scan(w_q, w_u, alpha, sign):
        """Min of the exact t_u profile over a dense scan of one side, ends included,
        with geometric points toward the band and toward t_u = 1."""
        from hude.tradeoff import _EXCLUDE_BAND, _inner_tq, _objective_scalar

        if sign < 0:
            t_u = np.concatenate([
                np.linspace(0.0, w_u - _EXCLUDE_BAND, 2001),
                w_u - np.geomspace(_EXCLUDE_BAND, w_u, 200),
            ])
        else:
            t_u = np.concatenate([
                np.linspace(w_u + _EXCLUDE_BAND, 1.0, 2001),
                w_u + np.geomspace(_EXCLUDE_BAND, 1.0 - w_u, 200),
                1.0 - np.geomspace(1e-12, 1e-2, 200),
            ])
        return min(
            _objective_scalar(_inner_tq(u, w_q, w_u, alpha) if u > 0.0 else 0.0,
                              u, w_q, w_u, alpha)
            for u in np.clip(t_u, 0.0, 1.0).tolist()
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("s", [20.0, 447.2])
    def test_not_above_dense_side_scan(self, s, sign, alpha):
        # Where the minimum sits at the band's edge, which the search stops
        # within _SIDE_XTOL of in its variable, it was 1.2e-9 relative above
        # the scan's (s = 20, lower side, alpha = 0.9).
        from hude.tradeoff import _side_minimum

        w_q = required_w_q(0.5, s)
        value, _, _ = _side_minimum(w_q, 0.5, alpha, sign)
        assert value <= self.side_scan(w_q, 0.5, alpha, sign) * (1.0 + 1e-8)

    @pytest.mark.parametrize("s", [20.0, 447.2, 10_000.0])
    def test_reports_its_own_point(self, s):
        # On each side, the value is the objective at the reported t_u and its
        # exact inner t_q, and t_u lies on that side of the band.
        from hude.tradeoff import _EXCLUDE_BAND, _inner_tq, _objective_scalar, _side_minimum

        w_q = required_w_q(0.5, s)
        for alpha in (0.5, 0.97):
            for sign in (-1.0, 1.0):
                value, t_q, t_u = _side_minimum(w_q, 0.5, alpha, sign)
                assert sign * (t_u - 0.5) >= _EXCLUDE_BAND and 0.0 <= t_u <= 1.0
                assert t_q == (_inner_tq(t_u, w_q, 0.5, alpha) if t_u > 0.0 else 0.0)
                assert value == _objective_scalar(t_q, t_u, w_q, 0.5, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_end_is_the_line_limit_without_a_search(self, alpha, monkeypatch):
        # The line limit is 0 at alpha 0 or 1, and F >= 0.
        import hude.tradeoff as tradeoff

        def no_search(*args):
            raise AssertionError("side search run")

        monkeypatch.setattr(tradeoff, "_side_minimum", no_search)
        w_q = required_w_q(0.5, 447.2)
        assert minimize_objective(w_q, 0.5, alpha) == InfimumResult(0.0, w_q, 0.5)

    def test_peak_memory_of_a_solve(self):
        # The search holds scalars only: 2.4 KiB under tracemalloc, where the
        # (t_q, t_u) grid it replaced peaked at 3.5 MiB.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            minimize_objective(required_w_q(0.5, 447.2), 0.5, 0.7)
            assert tracemalloc.get_traced_memory()[1] - base < 64 * 2**10
        finally:
            tracemalloc.stop()


class TestSearchBudget:
    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        where=st.one_of(
            st.sampled_from([-0.5, 0.0, 1e-12, 1.0 - 1e-12, 1.0, 1.5]), st.floats(0.0, 1.0)
        ),
        power=st.sampled_from([1, 3, 5]),
        jump=st.sampled_from([0.0, 1.0]),
        rel_tol=st.floats(1e-10, 1e-3),
    )
    @settings(max_examples=300, deadline=None)
    def test_zero_finder_stays_in_bracket_and_meets_tolerance(
        self, lo, width, where, power, jump, rel_tol
    ):
        # Increasing (x - c)^p, continuous or with a jump at c, turns
        # nonnegative at c: anywhere in the bracket, at either end, next to
        # it, or outside, where the finder returns the end nearer c.
        from hude.tradeoff import _brent_zero

        hi = lo + width
        c = hi if where == 1.0 else lo + where * width
        xtol = rel_tol * width
        seen = []

        def fun(x):
            seen.append(x)
            return math.copysign(abs(x - c) ** power, x - c) + (jump if x >= c else -jump)

        x = _brent_zero(fun, lo, hi, xtol)
        assert all(lo <= u <= hi for u in seen)
        assert x in seen
        assert abs(x - min(max(c, lo), hi)) <= xtol

    @pytest.mark.parametrize("s", np.geomspace(20.0, 10_000.0, 5).tolist())
    def test_inner_solves_per_benchmark_point(self, s, monkeypatch):
        # One numeric-lop point on the benchmark grid (rho_u = 1/2) needs at
        # most 400 inner t_q solves; Brent minimizations in place of the zero
        # finder made 571 to 900, a golden t_u search to 1e-14 relative 1,644
        # to 3,389.
        import hude.tradeoff as tradeoff

        inner = tradeoff._inner_tq
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(tradeoff, "_inner_tq", counted)
        query_exponent_lower_bound(required_w_q(0.5, s), 0.5, 0.5)
        assert len(calls) <= 400


class TestFirstOrderConditions:
    """The two slopes whose zeros the searches find, against central differences."""

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 0.97])
    @pytest.mark.parametrize("w_q", [required_w_q(0.5, s) for s in (20.0, 447.2, 1e4)] + [0.45])
    def test_side_slope_is_the_profile_derivative(self, w_q, alpha):
        # The exact profile P(u) = F(_inner_tq(u), u) has the derivative
        # _tu_slope / d(u||w_u), on both sides of the band and near t_u = 0
        # and 1; at w_q = 0.45 the inner t_q is mostly above t_u / 2.
        from hude.tradeoff import _inner_tq, _kl_scalar, _objective_scalar, _tu_slope

        w_u = 0.5

        def profile(u):
            return _objective_scalar(_inner_tq(u, w_q, w_u, alpha), u, w_q, w_u, alpha)

        def difference(u, step):
            return (profile(u + step) - profile(u - step)) / (2.0 * step)

        for u in (1e-3, 0.05, 0.3, 0.49, 0.51, 0.8, 0.999):
            step = 1e-2 * min(u, 1.0 - u, abs(u - w_u))
            # Richardson's step: the truncation error falls from O(step^2) to O(step^4).
            derivative = (4.0 * difference(u, step / 2.0) - difference(u, step)) / 3.0
            t_q = _inner_tq(u, w_q, w_u, alpha)
            slope = _tu_slope(t_q, u, w_q, w_u, alpha, profile(u)) / _kl_scalar(u, w_u)
            assert slope == pytest.approx(derivative, rel=1e-6, abs=1e-9), u

    @pytest.mark.parametrize(
        "w_q, w_u, alpha, on_line",
        [
            (required_w_q(0.5, 20.0), 0.5, 0.72, False),
            (required_w_q(0.5, 10_000.0), 0.5, 0.9, False),
            (required_w_q(0.7, 1e5), 0.7, 0.99, False),  # at the t_u = 1 corner
            (1e-3, 0.5, 0.5, True),  # the line limit wins
        ],
    )
    def test_alpha_slope_is_the_bound_derivative(self, w_q, w_u, alpha, on_line):
        # The bound B(alpha) = (inf F - (1 - alpha) rho_u) / alpha has the
        # derivative (rho_u - g_u) / alpha^2, with g_u from _g_u at the infimum.
        from hude.tradeoff import _g_u

        rho_u, step = 0.5, 1e-5

        def bound(a):
            return (minimize_objective(w_q, w_u, a).value - (1.0 - a) * rho_u) / a

        res = minimize_objective(w_q, w_u, alpha)
        assert (res.t_u == w_u) == on_line
        difference = (bound(alpha + step) - bound(alpha - step)) / (2.0 * step)
        slope = (rho_u - _g_u(res, w_q, w_u, alpha)) / alpha**2
        assert slope == pytest.approx(difference, rel=1e-6, abs=1e-9)


class TestClosedFormCurves:
    def test_explicit_bound_value(self):
        # 1 - 0.01^{1-log2} + 0.5/(1+log 0.01), coded independently.
        expected = 1.0 - 0.01 ** (1.0 - LOG2) + 0.5 / (1.0 + math.log(0.01))
        assert gapss_explicit_bound(0.01, 0.5) == pytest.approx(expected, rel=1e-14)
        assert gapss_explicit_bound(0.01, 0.5) == pytest.approx(0.61792, abs=1e-4)

    def test_explicit_bound_limits(self):
        assert gapss_explicit_bound(1e-9, 0.0) == pytest.approx(1.0, abs=2e-3)
        # More space lowers the bound: the correction term is negative.
        assert gapss_explicit_bound(0.01, 0.9) < gapss_explicit_bound(0.01, 0.1)
        with pytest.raises(ValueError):
            gapss_explicit_bound(0.4, 0.5)

    def test_analytic_bound_value(self):
        expected = 1.0 - 50.0 ** -(1.0 - LOG2) - 0.5 / (math.log(50.0) - 1.0)
        assert analytic_lower_bound(50.0, 0.5) == pytest.approx(expected, rel=1e-14)
        assert analytic_lower_bound(50.0, 0.5) == pytest.approx(0.52723, abs=1e-4)

    def test_analytic_bound_limits(self):
        # Both correction terms vanish, the space one only logarithmically.
        assert analytic_lower_bound(1e300, 0.5) == pytest.approx(1.0, abs=1e-3)
        grid = [analytic_lower_bound(s, 0.5) for s in (1e2, 1e4, 1e8, 1e12)]
        assert all(a < b for a, b in zip(grid, grid[1:]))
        with pytest.raises(ValueError):
            analytic_lower_bound(2.0, 0.5)

    def test_reduction_density_consistency(self):
        assert required_w_q(0.5, 50.0) == pytest.approx(0.0196053, abs=1e-7)

    def test_upper_exact_below_simplified(self):
        for s in (2.0, 10.0, 100.0, 10_000.0):
            for rho_u in (0.1, 0.5, 1.0):
                for eps in (0.2, 1.0, 1.8):
                    assert upper_exponent(s, rho_u, eps) <= upper_exponent(
                        s, rho_u, eps, simplified=True
                    ) + 1e-12

    def test_upper_exact_large_sample_limit(self):
        got = upper_exponent(1e6, 0.5, 1.0)
        limit = 1.0 - LOG2 * 0.5 / math.log(1e6)
        assert abs(got - limit) <= 0.05

    def test_upper_zero_space(self):
        assert upper_exponent(50.0, 0.0, 1.0) == 1.0
        assert upper_exponent(50.0, 0.0, 1.0, simplified=True) == 1.0

    def test_upper_full_separation_clamps(self):
        assert upper_exponent(50.0, 0.5, 2.0) == 0.0


class TestEntropyGap:
    # The paper's H(x) is d(x || 1/2).
    def test_zero_at_half(self):
        assert kl_binary(0.5, 0.5) == 0.0

    def test_quadratic_bounds_on_grid(self):
        xs = np.linspace(0.0, 1.0, 10_002)[1:-1]
        h = kl_binary(xs, 0.5)
        gap = (0.5 - xs) ** 2
        assert np.all(h >= 2.0 * gap)
        assert np.all(h <= 16.0 * gap)


class TestCurveEmission:
    def test_rows_within_unit_interval(self):
        rows = tradeoff_rows(0.5, [20.0, 100.0])
        assert len(rows) == 8
        for row in rows:
            assert 0.0 <= row.rho_q <= 1.0
            assert row.inv_s == pytest.approx(1.0 / row.s)
            assert row.w_q == pytest.approx(required_w_q(0.5, row.s))

    def test_csv_round_trip(self, tmp_path):
        rows = tradeoff_rows(
            0.5,
            [30.0],
            curves=("analytic-lower", "upper-half-uniform", "prior-general"),
            prior_constant=1.0,
        )
        path = tmp_path / "curves.csv"
        write_rows(rows, path)
        assert read_rows(path, TradeoffPoint) == rows
        text = path.read_text()
        write_rows(read_rows(path, TradeoffPoint), path)
        assert path.read_text() == text

    def test_prior_general_needs_constant(self):
        with pytest.raises(ValueError):
            tradeoff_rows(0.5, [30.0], curves=("prior-general",))

    def test_prior_general_clamps_and_flags(self):
        rows = tradeoff_rows(0.5, [4.0], curves=("prior-general",), prior_constant=10.0)
        assert rows[0].rho_q == 0.0
        assert "clamped" in rows[0].flags

    def test_vanishing_order_flags_present(self):
        rows = tradeoff_rows(
            0.5, [50.0], curves=("analytic-lower", "explicit-gapss"),
        )
        assert all("o1-dropped" in row.flags for row in rows)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            tradeoff_rows(0.5, [30.0], curves=("mystery",))

    def test_header_enforced_on_parse(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("curve,s\nx,1\n")
        with pytest.raises(ValueError):
            read_rows(path, TradeoffPoint)
