"""Accuracy of `slowphoton.specfun`, the closed forms' special functions and Gauss-Legendre rules.

`propagate` and `observables` call specfun alone: j0 and j1x = J1(x)/x in the
matched, broad and nonadiabatic envelopes, i0e and i1e in the thickness
formulas, erfcx in the adiabatic EIT edge and window energy, and
gauss_legendre for the beat and scan rules.  The closed forms are compared
with the numeric propagation at about 1e-12, so these functions must hold that
accuracy on the arguments the formulas reach; they hold about 1e-15.

Frozen reference values were generated once with a 40-digit mpmath series
evaluation; the in-file power series provides a second, self-contained
cross-check at small arguments.  `specfun_reference.json`, which
`tests/specfun_reference.py` writes with the tables it fits, adds 40-digit
mpmath sweeps: J0 and J1 on [0, 1e4] with their first zeros, i0e and i1e on
[0, 1e6], erfcx on [0, 1e3], Gauss-Legendre nodes and weights, and phi_plus
on the EIT example.  scipy.special, a test dependency only, is an independent
cross-check.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from slowphoton import observables, propagate, specfun
from slowphoton.errors import ValidityError
from slowphoton.media import EitMedium, eit_params
from slowphoton.waveforms import TimeGrid

REFERENCE = json.loads(Path(__file__).with_name("specfun_reference.json").read_text())

# (x, J0(x), J1(x)) from the 40-digit oracle
J_REFERENCE = [
    (0.5, 0.9384698072408129042284, 0.242268457674873886384),
    (1.0, 0.7651976865579665514497, 0.4400505857449335159597),
    (2.0, 0.2238907791412356680518, 0.5767248077568733872024),
    (5.0, -0.1775967713143383043474, -0.3275791375914652220377),
    (10.0, -0.2459357644513483351978, 0.04347274616886143666975),
    (25.0, 0.0962667832759581161735, -0.1253502495802899046518),
    (50.0, 0.05581232766925181500475, -0.09751182812517513766146),
    (100.0, 0.01998585030422312242423, -0.07714535201411215803269),
    (1000.0, 0.02478668615242017456133, 0.004728311907089523917576),
    (10000.0, -0.007096160353388801477265, 0.003647450755529580344117),
]

# (x, I0(x), I1(x))
I_REFERENCE = [
    (0.5, 1.063483370741323519263, 0.2578943053908963163625),
    (1.0, 1.266065877752008335598, 0.5651591039924850272077),
    (2.0, 2.279585302336067267437, 1.590636854637329063382),
    (5.0, 27.23987182360444689454, 24.33564214245052719914),
    (10.0, 2815.71662846625447147, 2670.988303701254654341),
    (50.0, 2.932553783849336326655e20, 2.903078590103556796751e20),
    (200.0, 2.039687173409724619542e85, 2.034581549332062703427e85),
    (700.0, 1.529593347671873736316e302, 1.528500390233900688145e302),
]

# (x, exp(-x)*I0(x), exp(-x)*I1(x))
I_SCALED_REFERENCE = [
    (0.5, 0.645035270449150068108, 0.1564208031848716971426),
    (1.0, 0.4657596075936404365019, 0.2079104153497084488694),
    (10.0, 0.1278333371634286073231, 0.121262681384455518719),
    (200.0, 0.02822715994911191567034, 0.02815650339483291782246),
    (1e4, 0.003989472674604732106361, 0.00398927319598366226448),
    (1e6, 0.0003989423302692457787773, 0.0003989421307980307763133),
]

J0_FIRST_ROOT = 2.404825557695772768622

# Relative error target away from zeros; absolute floor near the zeros of
# J0/J1, where a relative bound is not meaningful for double arguments.
RTOL = 2e-15
ATOL = 4e-16
# the sweeps: J0 and J1 within SWEEP_ATOL of the envelope min(1, sqrt(8/x)), the rest relative
SWEEP_ATOL = 6e-16
SWEEP_RTOL = 1e-15


def series_j(order, x, terms=70):
    """Power series for J0/J1 in exact rational arithmetic (no cancellation)."""
    from fractions import Fraction

    half = Fraction(x) / 2
    total = Fraction(0)
    for k in range(terms):
        term = half ** (2 * k + order)
        term /= math.factorial(k) * math.factorial(k + order)
        total += -term if k % 2 else term
    return float(total)


def series_i(order, x, terms=80):
    from fractions import Fraction

    half = Fraction(x) / 2
    total = Fraction(0)
    for k in range(terms):
        total += half ** (2 * k + order) / (math.factorial(k) * math.factorial(k + order))
    return float(total)


def j1(x):
    return x * specfun.j1x(x)


def sweep(name):
    x, value = np.array(REFERENCE[name]).T
    return x, value


def test_library_calls_specfun():
    # every special function and rule of the closed forms comes from specfun, none from scipy
    assert propagate.specfun is specfun
    assert observables.specfun is specfun
    assert not hasattr(propagate, "_sp") and not hasattr(observables, "_sp")


def test_tables_are_the_reference_scripts():
    # `python tests/specfun_reference.py` prints the tables it fits; specfun holds exactly those
    for name, values in REFERENCE["tables"].items():
        assert getattr(specfun, f"_{name}") == tuple(values), name


class TestBesselJ:
    def test_exact_values_at_zero(self):
        assert specfun.j0(0.0) == 1.0
        assert specfun.j1x(0.0) == 0.5
        assert j1(0.0) == 0.0

    @pytest.mark.parametrize("x,j0,j1", J_REFERENCE)
    def test_oracle_values(self, x, j0, j1):
        assert specfun.j0(x) == pytest.approx(j0, rel=RTOL, abs=ATOL)
        assert x * specfun.j1x(x) == pytest.approx(j1, rel=RTOL, abs=ATOL)

    @pytest.mark.parametrize("name, f", [("j0", specfun.j0), ("j1", j1)])
    def test_mpmath_sweep(self, name, f):
        # [0, 1e4], both sides of the cut at 8 and the first zeros: absolute, on the envelope
        x, value = sweep(name)
        envelope = np.minimum(1.0, np.sqrt(8.0 / np.maximum(x, 8.0)))
        assert np.all(np.abs(f(x) - value) <= SWEEP_ATOL * envelope)

    def test_against_series(self):
        for x in np.linspace(0.05, 9.0, 25):
            assert specfun.j0(x) == pytest.approx(series_j(0, x), rel=1e-13, abs=1e-14)
            assert j1(x) == pytest.approx(series_j(1, x), rel=1e-13, abs=1e-14)

    def test_first_root(self):
        assert abs(specfun.j0(J0_FIRST_ROOT)) <= 1e-16

    def test_derivative_identity(self):
        # d/dx J0 = -J1, central differences at random points
        rng = np.random.default_rng(20240517)
        xs = rng.uniform(0.1, 50.0, size=100)
        h = 1e-5
        for x in xs:
            fd = (specfun.j0(x + h) - specfun.j0(x - h)) / (2 * h)
            assert fd == pytest.approx(-j1(x), abs=1e-8)

    def test_vectorized(self):
        # The envelopes evaluate J0 on whole grids and tau x node matrices at once.
        x = np.array([0.0, 1.0, 2.0])
        out = specfun.j0(x)
        assert out.shape == (3,)
        assert out[0] == 1.0
        grid = np.linspace(0.0, 70.0, 600).reshape(20, 30)
        np.testing.assert_array_equal(specfun.j0(grid), specfun.j0(grid.ravel()).reshape(20, 30))
        assert isinstance(specfun.j0(3.0), np.float64)

    def test_matches_scipy(self):
        # an independent implementation (Cephes) over the arguments the beat integrals reach
        x = np.random.default_rng(36).uniform(0.0, 70.0, 5000)
        np.testing.assert_allclose(specfun.j0(x), special.j0(x), rtol=0, atol=1e-15)
        np.testing.assert_allclose(j1(x), special.j1(x), rtol=0, atol=1e-15)


class TestBesselI:
    def test_exact_values_at_zero(self):
        assert specfun.i0e(0.0) == 1.0
        assert specfun.i1e(0.0) == 0.0

    @pytest.mark.parametrize("x,i0,i1", I_REFERENCE)
    def test_oracle_values(self, x, i0, i1):
        assert specfun.i0e(x) == pytest.approx(math.exp(-x) * i0, rel=RTOL)
        assert specfun.i1e(x) == pytest.approx(math.exp(-x) * i1, rel=RTOL)

    def test_against_series(self):
        for x in np.linspace(0.1, 20.0, 15):
            scale = math.exp(-x)
            assert specfun.i0e(x) == pytest.approx(scale * series_i(0, x), rel=1e-13)
            assert specfun.i1e(x) == pytest.approx(scale * series_i(1, x), rel=1e-13)


class TestScaledBessel:
    def test_at_zero(self):
        assert specfun.i0e(0.0) == 1.0
        assert specfun.i1e(0.0) == 0.0

    @pytest.mark.parametrize("x,i0e,i1e", I_SCALED_REFERENCE)
    def test_oracle_values(self, x, i0e, i1e):
        assert specfun.i0e(x) == pytest.approx(i0e, rel=SWEEP_RTOL)
        assert specfun.i1e(x) == pytest.approx(i1e, rel=SWEEP_RTOL)

    @pytest.mark.parametrize("name", ["i0e", "i1e"])
    def test_mpmath_sweep(self, name):
        # [0, 1e6], both sides of the cut at 12
        x, value = sweep(name)
        f = getattr(specfun, name)
        assert np.all(np.abs(f(x) - value) <= SWEEP_RTOL * value)

    def test_asymptotic_form(self):
        # i0e(x) ~ (2*pi*x)**-0.5 * (1 + 1/(8x)) for large x
        x = 200.0
        asym = (2 * math.pi * x) ** -0.5 * (1 + 1 / (8 * x))
        assert specfun.i0e(x) == pytest.approx(asym, rel=2e-5)

    def test_consistency_with_unscaled(self):
        for x in np.linspace(0.1, 50.0, 23):
            assert specfun.i0e(x) * math.exp(x) == pytest.approx(series_i(0, x), rel=1e-9)

    def test_matches_scipy(self):
        # the thickness scan's range, T up to 3,000
        x = np.random.default_rng(37).uniform(0.0, 3000.0, 5000)
        np.testing.assert_allclose(specfun.i0e(x), special.i0e(x), rtol=2e-15, atol=0)
        np.testing.assert_allclose(specfun.i1e(x), special.i1e(x), rtol=2e-15, atol=0)


class TestErfcx:
    def test_at_zero(self):
        assert specfun.erfcx(0.0) == 1.0

    def test_mpmath_sweep(self):
        # [0, 1e3]
        x, value = sweep("erfcx")
        assert np.all(np.abs(specfun.erfcx(x) - value) <= SWEEP_RTOL * value)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.3, 2.0, 3.0, 5.0])
    def test_against_math_erfc(self, x):
        # the standard library's erfc, a third implementation, where exp(x**2) stays small
        assert specfun.erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-14)

    def test_derivative_identity(self):
        # d/dx erfcx = 2x erfcx - 2/sqrt(pi)
        rng = np.random.default_rng(7)
        h = 1e-5
        for x in rng.uniform(0.0, 30.0, size=50):
            fd = (specfun.erfcx(x + h) - specfun.erfcx(x - h)) / (2 * h)
            assert fd == pytest.approx(2 * x * specfun.erfcx(x) - 2 / math.sqrt(math.pi), abs=1e-9)

    def test_asymptotic_form(self):
        # erfcx(x) ~ (1 - 1/(2x^2) + 3/(4x^4))/(x sqrt(pi))
        x = 1e3
        assert specfun.erfcx(x) == pytest.approx((1 - 0.5 / x**2 + 0.75 / x**4) / (x * math.sqrt(math.pi)), rel=1e-15)

    def test_matches_scipy(self):
        x = np.random.default_rng(38).uniform(0.0, 80.0, 2000)
        np.testing.assert_allclose(specfun.erfcx(x), special.erfcx(x), rtol=1e-15, atol=0)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", sorted(map(int, REFERENCE["legendre"])))
    def test_frozen_nodes_and_weights(self, n):
        nodes, weights = specfun.gauss_legendre(n)
        reference = REFERENCE["legendre"][str(n)]
        assert np.abs(nodes - reference["nodes"]).max() <= 4e-16
        assert np.abs(weights / reference["weights"] - 1.0).max() <= 3e-15

    @pytest.mark.parametrize(
        "a, n", [(20.0, n) for n in (21, 24, 31, 53, 58, 61)] + [(30.0, n) for n in (34, 36, 38, 72, 75)]
    )
    def test_exponential_integrals(self, a, n):
        # the rules whose scipy weights were 1e-13 off on these integrals (the largest 1.8e-13,
        # exp(30x) with 36 nodes), the presets' beat and scan rules among them
        nodes, weights = specfun.gauss_legendre(n)
        assert np.exp(a * nodes) @ weights == pytest.approx(2.0 * math.sinh(a) / a, rel=2.5e-15)

    @pytest.mark.parametrize("n", [2, 3, 10, 35, 46, 67])
    def test_symmetric_and_deterministic(self, n):
        nodes, weights = specfun.gauss_legendre(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])
        assert weights.sum() == pytest.approx(2.0, rel=2e-15)
        again = specfun.gauss_legendre(n)
        np.testing.assert_array_equal(nodes, again[0])
        np.testing.assert_array_equal(weights, again[1])

    def test_memory_grows_as_n(self):
        # a thick matched line on a short grid passes the beat work cap with a 31,651-node rule
        # (thickness 1e8, 99 points); a whole node x term matrix would take 2 GB per temporary there
        tracemalloc.start()
        try:
            nodes, weights = specfun.gauss_legendre(3001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the whole matrix: 18 MB
        assert weights.sum() == pytest.approx(2.0, rel=2e-15)
        for a in (20.0, 30.0):
            assert np.exp(a * nodes) @ weights == pytest.approx(2.0 * math.sinh(a) / a, rel=2.5e-15)

    @pytest.mark.parametrize("n", [5, 24, 45, 75])
    def test_matches_scipy(self, n):
        # scipy's Golub-Welsch rule: nodes to round-off, weights to its own ~1e-12
        nodes, weights = specfun.gauss_legendre(n)
        ref_nodes, ref_weights = special.roots_legendre(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=5e-16)
        np.testing.assert_allclose(weights, ref_weights, rtol=5e-12, atol=0)


class TestPhiPlus:
    """phi_plus on the EIT example, written through erfcx, against mpmath."""

    PHI = REFERENCE["phi_plus"]

    @pytest.mark.parametrize("case", PHI["cases"], ids=lambda c: f"delta_ph_{c['delta_ph']:g}")
    def test_matches_mpmath(self, case):
        # at delta_ph = 40 (r = 5.78), exp(r**2)(1 + erf z) gave 0.0 on 118 of 301 rows, 5.7e-31 at tau = -0.5
        params = eit_params(EitMedium(*self.PHI["medium"]))
        tau = TimeGrid(*self.PHI["grid"]).times()[self.PHI["indices"]]
        value = np.array(case["values"])
        got = propagate.phi_plus(case["delta_ph"], params, tau)
        assert np.all(got > 0.0)
        np.testing.assert_allclose(got, value, rtol=1e-13, atol=0)

    def test_overflowing_plateau_is_refused_by_name(self):
        # r = 200/6.919 = 28.9 > sqrt(709.78): exp(r**2) is not a double
        params = eit_params(EitMedium(*self.PHI["medium"]))
        with pytest.raises(ValidityError, match=r"phi_plus's plateau exp\(\(delta_ph/delta_eff\)\*\*2\) overflows"):
            propagate.phi_plus(200.0, params, np.linspace(-0.5, 2.5, 301))
        assert propagate._check_phi_plus(26.0 * params.delta_eff, params) == pytest.approx(math.exp(26.0**2), rel=1e-13)
