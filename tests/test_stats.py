"""Binomial likelihood intervals."""

import math

import pytest

from ghostdec.circuits import CircuitError
from ghostdec.stats import likelihood_interval

FACTOR = 1000.0
CASES = [(1, 10), (3, 100), (28, 12000), (9, 12000), (6000, 12000),
         (11990, 12000), (11999, 12000), (59, 60), (1, 10**8),
         (10, 10**8)]


def log_likelihood(k, n, p):
    return k * math.log(p) + (n - k) * math.log1p(-p)


@pytest.mark.parametrize("k, n", CASES)
def test_interval_holds_the_estimate_and_sits_at_the_cut(k, n):
    lo, hi = likelihood_interval(k, n, FACTOR)
    assert 0.0 < lo < k / n < hi < 1.0
    cut = log_likelihood(k, n, k / n) - math.log(FACTOR)
    for end, inward in ((lo, 1.0), (hi, -1.0)):
        assert log_likelihood(k, n, end) == pytest.approx(cut, abs=1e-6)
        # precise relative to the distance from the nearer bound, 0 or 1,
        # down to the float spacing near 1
        step = max(1e-9 * min(end, 1.0 - end), 4 * math.ulp(end))
        assert log_likelihood(k, n, end + inward * step) > cut
        assert log_likelihood(k, n, end - inward * step) < cut


@pytest.mark.parametrize("n", [1, 7, 12000, 10**8])
def test_interval_is_closed_form_at_zero_and_all_failures(n):
    # L(p) = (1-p)^n at k = 0 and p^n at k = n
    gap = 1.0 - FACTOR ** (-1.0 / n)
    lo, hi = likelihood_interval(0, n, FACTOR)
    assert lo == 0.0 and hi == pytest.approx(gap, rel=1e-6)
    assert n * math.log1p(-hi) == pytest.approx(-math.log(FACTOR), rel=1e-12)
    lo, hi = likelihood_interval(n, n, FACTOR)
    assert hi == 1.0 and lo == pytest.approx(1.0 - gap, rel=1e-12)


@pytest.mark.parametrize("k, n", CASES + [(0, 50), (50, 50)])
def test_upper_endpoint_mirrors_the_lower(k, n):
    # binomial symmetry: failures and successes swap under p -> 1 - p;
    # equal up to rounding one minus a float near 1
    hi = likelihood_interval(k, n)[1]
    assert hi == pytest.approx(1.0 - likelihood_interval(n - k, n)[0],
                               rel=0, abs=math.ulp(1.0))


@pytest.mark.parametrize("k, n, factor, match", [
    (0, 0, FACTOR, "at least one sample"),
    (5, 4, FACTOR, "failure count 5 outside"),
    (-1, 4, FACTOR, "failure count -1 outside"),
    (1, 4, 1.0, "factor must exceed 1"),
], ids=["no-samples", "too-many-failures", "negative-failures", "factor"])
def test_bad_input_raises_a_circuit_error(k, n, factor, match):
    with pytest.raises(CircuitError, match=match):
        likelihood_interval(k, n, factor)
