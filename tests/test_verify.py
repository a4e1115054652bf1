"""The packaged invariant suite stays green and reports per check."""

import pytest

from hude.verify import SUITES, run_suite


def test_full_suite_passes():
    results = run_suite("all")
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, failures
    assert len(results) == sum(len(group) for group in SUITES.values())


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_single_suite_subset():
    results = run_suite("distributions")
    assert {name for name, _, _ in results} == set(SUITES["distributions"])


@pytest.mark.parametrize("mutation", ["coarse-search", "lower-side-only"])
def test_below_profile_scan_catches_a_weakened_solver(mutation, monkeypatch):
    # The check must fail a solver that stops early or searches one side of
    # the band only; both leave the infimum above the t_u scan's minimum.
    import math

    import hude.tradeoff as tradeoff

    if mutation == "coarse-search":
        monkeypatch.setattr(tradeoff, "_SIDE_XTOL", 0.3)
    else:
        side = tradeoff._side_minimum

        def lower_only(w_q, w_u, alpha, sign):
            return side(w_q, w_u, alpha, sign) if sign < 0 else (math.inf, w_q, w_u)

        monkeypatch.setattr(tradeoff, "_side_minimum", lower_only)
    detail = SUITES["tradeoff"]["below-profile-scan"]()
    assert detail is not None and "above the t_u scan's minimum" in detail


def test_certify_batch_check_catches_shuffles_that_are_not_per_candidate(monkeypatch):
    # A query whose chunk shuffles differ from one rng.permutation per
    # candidate (here the pool reversed before the shuffle) must fail the check.
    import numpy as np

    import hude.subset_index as subset_index

    class ReversedTile:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def tile(pool, reps):
            return np.tile(pool[::-1], reps)

    assert SUITES["index"]["certify-batch-matches-reference"]() is None
    monkeypatch.setattr(subset_index, "np", ReversedTile())
    detail = SUITES["index"]["certify-batch-matches-reference"]()
    assert detail is not None and "with one shuffle per candidate" in detail
