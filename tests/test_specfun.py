"""Accuracy of the special functions the closed forms call.

`propagate` and `observables` call `scipy.special` (Cephes) directly: j0 and
j1 in the matched, broad and nonadiabatic envelopes, i0e and i1e in the
thickness formulas, erf in the adiabatic EIT edge.  The closed forms are
compared with the numeric propagation at about 1e-12, so these functions
must hold that accuracy on the arguments the formulas reach.

Frozen reference values were generated once with a 40-digit mpmath series
evaluation; the in-file power series provides a second, self-contained
cross-check at small arguments.  The unscaled I0/I1 values are checked
through exp(-x)*I0(x) and exp(-x)*I1(x), the forms the library evaluates.
"""

import math

import numpy as np
import pytest
from scipy import special

from slowphoton import observables, propagate

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

# (x, erf(x))
ERF_REFERENCE = [
    (0.1, 0.1124629160182848922033),
    (0.5, 0.5204998778130465376827),
    (1.0, 0.8427007929497148693412),
    (1.3, 0.9340079449406524366039),
    (2.0, 0.9953222650189527341621),
    (3.0, 0.9999779095030014145586),
    (5.0, 0.9999999999984625402056),
]

J0_FIRST_ROOT = 2.404825557695772768622

# Relative error target away from zeros; absolute floor near the zeros of
# J0/J1, where a relative bound is not meaningful for double arguments.
RTOL = 1e-12
ATOL = 2e-13
SCALED_RTOL = 1e-10


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


def test_library_calls_scipy_special():
    assert propagate._sp is special
    assert observables._sp is special


class TestBesselJ:
    def test_exact_values_at_zero(self):
        assert special.j0(0.0) == 1.0
        assert special.j1(0.0) == 0.0

    @pytest.mark.parametrize("x,j0,j1", J_REFERENCE)
    def test_oracle_values(self, x, j0, j1):
        assert special.j0(x) == pytest.approx(j0, rel=RTOL, abs=ATOL)
        assert special.j1(x) == pytest.approx(j1, rel=RTOL, abs=ATOL)

    def test_against_series(self):
        for x in np.linspace(0.05, 9.0, 25):
            assert special.j0(x) == pytest.approx(series_j(0, x), rel=1e-13, abs=1e-14)
            assert special.j1(x) == pytest.approx(series_j(1, x), rel=1e-13, abs=1e-14)

    def test_first_root(self):
        assert abs(special.j0(J0_FIRST_ROOT)) <= 1e-12

    def test_derivative_identity(self):
        # d/dx J0 = -J1, central differences at random points
        rng = np.random.default_rng(20240517)
        xs = rng.uniform(0.1, 50.0, size=100)
        h = 1e-5
        for x in xs:
            fd = (special.j0(x + h) - special.j0(x - h)) / (2 * h)
            assert fd == pytest.approx(-special.j1(x), abs=1e-8)

    def test_vectorized(self):
        # The envelopes evaluate J0 on whole grids at once.
        x = np.array([0.0, 1.0, 2.0])
        out = special.j0(x)
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestBesselI:
    def test_exact_values_at_zero(self):
        assert special.i0e(0.0) == 1.0
        assert special.i1e(0.0) == 0.0

    @pytest.mark.parametrize("x,i0,i1", I_REFERENCE)
    def test_oracle_values(self, x, i0, i1):
        assert special.i0e(x) == pytest.approx(math.exp(-x) * i0, rel=RTOL)
        assert special.i1e(x) == pytest.approx(math.exp(-x) * i1, rel=RTOL)

    def test_against_series(self):
        for x in np.linspace(0.1, 20.0, 15):
            scale = math.exp(-x)
            assert special.i0e(x) == pytest.approx(scale * series_i(0, x), rel=1e-13)
            assert special.i1e(x) == pytest.approx(scale * series_i(1, x), rel=1e-13)


class TestScaledBessel:
    def test_at_zero(self):
        assert special.i0e(0.0) == 1.0
        assert special.i1e(0.0) == 0.0

    @pytest.mark.parametrize("x,i0e,i1e", I_SCALED_REFERENCE)
    def test_oracle_values(self, x, i0e, i1e):
        assert special.i0e(x) == pytest.approx(i0e, rel=SCALED_RTOL)
        assert special.i1e(x) == pytest.approx(i1e, rel=SCALED_RTOL)

    def test_asymptotic_form(self):
        # i0e(x) ~ (2*pi*x)**-0.5 * (1 + 1/(8x)) for large x
        x = 200.0
        asym = (2 * math.pi * x) ** -0.5 * (1 + 1 / (8 * x))
        assert special.i0e(x) == pytest.approx(asym, rel=2e-5)

    def test_consistency_with_unscaled(self):
        for x in np.linspace(0.1, 50.0, 23):
            assert special.i0e(x) * math.exp(x) == pytest.approx(series_i(0, x), rel=1e-9)


class TestErf:
    def test_zero(self):
        assert special.erf(0.0) == 0.0

    @pytest.mark.parametrize("x,val", ERF_REFERENCE)
    def test_oracle_values(self, x, val):
        assert special.erf(x) == pytest.approx(val, rel=RTOL)

    def test_exactly_odd(self):
        for x in [0.3, 1.3, 2.7, 5.5, 17.0]:
            assert special.erf(-x) == -special.erf(x)

    def test_derivative_identity(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for x in rng.uniform(-3, 3, size=50):
            fd = (special.erf(x + h) - special.erf(x - h)) / (2 * h)
            assert fd == pytest.approx(2 / math.sqrt(math.pi) * math.exp(-x * x), abs=1e-8)
