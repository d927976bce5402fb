"""The closed forms' special functions and Gauss-Legendre rules, in numpy alone.

j0, j1x = J1(x)/x, i0e, i1e and erfcx (x >= 0) are polynomials in a mapped argument, laid out in
`tests/specfun_reference.py`, whose mpmath fits are the tables below and whose 40-digit sweeps hold
each within about 1e-15 relative (absolute near the zeros of J0 and J1).  Past x = 8, J_nu is a
modulus times the cosine of a phase; erfcx is Weideman's form (SIAM J. Numer. Anal. 31, 1497 (1994)).
"""

import math

import numpy as np

# tests/specfun_reference.py's tables, highest power first
_J0_ZEROS = (5.783185962946784, 30.471262343662087)
_J1_ZEROS = (14.681970642123893, 49.2184563216946)
_J0_SMALL = (1.1267787033870516e-15, -1.3255512152341305e-14, 3.371515498713547e-13, -8.021101456864043e-12,
             1.6276700480514961e-10, -2.7948656942842706e-09, 3.998839261611135e-08, -4.6771280068189444e-07,
             4.366932324694245e-06, -3.1573425402589874e-05, 0.0001697720071400156, -0.0006415390646405779,
             0.0015636431645931598, -0.0021197942894796928, 0.0011434937743762547)
_J0_MODULUS = (-9.948315419646595e-13, 4.3210744524079034e-12, -1.9207872508563637e-11, 1.1962861017908878e-10,
               -9.34699694284072e-10, 9.788086536387034e-09, -1.546341414279509e-07, 4.506774582764385e-06,
               -0.00038006989744923827, 0.7974998186297526)
_J0_PHASE = (8.343956130743545e-12, -3.338675569700779e-11, 1.3130054724788896e-10, -7.306281840263931e-10,
             4.968895216497429e-09, -4.339875002142809e-08, 5.35952519944716e-07, -1.0858254541648227e-05,
             0.00048509785023499095, -0.1245034586713921)
_J1_SMALL = (-4.4233404881138454e-17, -3.923253848147753e-16, 1.1536977430890874e-14, -2.8754859811147777e-13,
             6.284475011063678e-12, -1.169693313037359e-10, 1.826854935001891e-09, -2.3521922541802976e-08,
             2.4425222602485974e-07, -1.9890935159155046e-06, 1.2242173653021642e-05, -5.40800323908549e-05,
             0.00015860016799369858, -0.00026975227467163684, 0.00019498936985895625)
_J1_MODULUS = (1.159750879732095e-12, -5.109243563905088e-12, 2.3236365012055176e-11, -1.4846905353840071e-10,
               1.2044493863772522e-09, -1.3407107401905464e-08, 2.3653600276845452e-07, -8.611413560948693e-06,
               0.0011507830214435406, 0.7990442065634047)
_J1_PHASE = (-9.71197431170553e-12, 3.9393076083061933e-11, -1.5848869422941466e-10, 9.036654515380248e-10,
             -6.366650858973668e-09, 5.8863258102057443e-08, -8.039685525349726e-07, 1.979074356748043e-05,
             -0.001239470667440366, 0.37373986827926386)
_I0_LARGE = (-49042951.379639804, 25118734.01761823, -5673119.471877204, 752185.8197479019, -65049.91798414812,
             3880.953107372238, -159.32741038816977, 5.457987974373227, 0.1302458029584593, 0.0919764875647861,
             0.04472974412418148, 0.02921947319298118, 0.02805062889777751, 0.049867785050394985,
             0.39894228040143265)
_I1_LARGE = (51749907.72890816, -26559641.322910063, 6009735.018356918, -798236.4585718905, 69144.78483104963,
             -4132.300670423648, 169.70577837113933, -5.8861523343236515, -0.16502120986906943, -0.11220641610252471,
             -0.057512352027374494, -0.04090724016157717, -0.04675104827772637, -0.14960335515076872,
             0.3989422804014327)
_ERFCX = (-4.217762449521079e-09, -1.139005966594751e-09, 4.664850467933229e-08, 8.466989086311609e-09,
          -3.2154690494082243e-07, -5.390482408065365e-08, 1.9999133064973137e-06, 7.614742783018847e-07,
          -1.2645711264814456e-05, -1.2695410215489898e-05, 7.796603808391972e-05, 0.00018374934448262914,
          -0.00033096862448925095, -0.0021698913648799654, -0.002398849708808543, 0.013518525798612055,
          0.07929664374474577, 0.24381882949673983, 0.5462663462718861, 0.9771297472370599, 1.4522680159841292,
          1.8300310200007635)
# I_nu(x)/(x/2)**nu = sum_k (x**2/4)**k/(k!(k + nu)!), nu = 0, 1, to k = 26 for x <= 12; cos r to
# k = 10 for |r| <= pi/2 (each below 2e-17 past there); pi as a 41-bit head (exact times k < 4096) + rest
_I_SMALL = [tuple(1.0 / (4**k * math.factorial(k) * math.factorial(k + nu)) for k in range(26, -1, -1)) for nu in (0, 1)]
_COS = tuple((-1) ** k / math.factorial(2 * k) for k in range(10, -1, -1))
_PI = (3.1415926535883045, 1.4887094960973246e-12)


def _horner(c, t, out=None):
    out = np.multiply(t, c[0], out=out)
    out += c[1]
    for ck in c[2:]:
        out *= t
        out += ck
    return out


def _piecewise(x, cut, near, far):
    """near(x) where x <= cut, far(x) elsewhere; a numpy float for a scalar x."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    low = flat <= cut
    out = np.empty(flat.shape)
    out[low] = near(flat[low])
    low = ~low
    out[low] = far(flat[low])
    return out.reshape(x.shape)[()]


def _bessel_j(nu, x, zeros, small, modulus, phase):
    def near(x):
        y = x * x
        return _horner(small, y * (1.0 / 32.0) - 1.0) * (y - zeros[0]) * (y - zeros[1])

    def far(x):
        # M(u) cos(theta)/sqrt(x), u = 128/x^2 - 1, theta = x - (2nu + 1)pi/4 + phi(u)/x = r + k pi with
        # |r| <= pi/2, mostly in place: on the beat integrals' blocks a fresh array costs more than a step
        inv = 1.0 / x
        u = 128.0 * np.square(inv) - 1.0
        theta = _horner(phase, u) * inv - (2 * nu + 1) * math.pi / 4
        k = np.rint((x + theta) * (1.0 / math.pi))
        r = np.multiply(k, -_PI[0])
        r += x
        r += theta
        r -= np.multiply(k, _PI[1], out=theta)
        out = _horner(_COS, np.square(r, out=r), out=theta)
        k *= 0.5
        k -= np.floor(k, out=r)
        k *= -4.0
        k += 1.0  # (-1)^k
        out *= k
        out *= _horner(modulus, u, out=k)
        out *= np.sqrt(inv, out=inv)
        return out * np.square(inv, out=inv) if nu else out

    return _piecewise(x, 8.0, near, far)


def j0(x):
    """Bessel J0(x), x >= 0."""
    return _bessel_j(0, x, _J0_ZEROS, _J0_SMALL, _J0_MODULUS, _J0_PHASE)


def j1x(x):
    """J1(x)/x, x >= 0 (1/2 at x = 0)."""
    return _bessel_j(1, x, _J1_ZEROS, _J1_SMALL, _J1_MODULUS, _J1_PHASE)


def _bessel_ie(nu, x, large):
    return _piecewise(x, 12.0, lambda x: _horner(_I_SMALL[nu], x * x) * np.exp(-x) * (0.5 * x) ** nu,
                      lambda x: _horner(large, 1.0 / x) / np.sqrt(x))


def i0e(x):
    """exp(-x) * I0(x), x >= 0."""
    return _bessel_ie(0, x, _I0_LARGE)


def i1e(x):
    """exp(-x) * I1(x), x >= 0."""
    return _bessel_ie(1, x, _I1_LARGE)


def erfcx(x):
    """exp(x**2) * erfc(x), x >= 0."""
    s = np.add(x, 3.5)
    return ((2.0 * _horner(_ERFCX, (7.0 - s) / s) / s + 1.0 / math.sqrt(math.pi)) / s)[()]


def gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending, with no linear algebra.

    Node k > 0 is cos(theta), theta = pi(4k - 1)/(4n + 2) + delta: three Newton steps in delta on
    P_n(cos theta) = sum_j c_j cos((n - 2j) theta), c_j = C(2j, j) C(2n - 2j, n - j)/4^n, each angle
    reduced mod 2pi in integers first, reach round-off; its weight is 2/(dP_n/dtheta)^2.  The nodes
    go in blocks of at most 2^15 angles, so memory grows as n.
    """
    q = np.arange(3, 2 * n + 2, 4)  # 4k - 1
    order = np.arange(n, -1, -2)
    c, low, high, scale = np.empty(order.size), 1, math.comb(2 * n, n), 4**n
    for j in range(order.size):  # low, high = C(2j, j), C(2n - 2j, n - j), stepped in integers
        c[j] = low * high / scale
        low, high = low * (4 * j + 2) // (j + 1), high * (n - j) // (4 * n - 4 * j - 2)
    c[order > 0] *= 2.0
    slope = c * order
    theta = q * (math.pi / (4 * n + 2))
    delta = 1.0 / (8.0 * (n + 0.5) ** 2 * np.tan(theta))
    weights = np.empty(q.size)
    step = max(1, 2**15 // order.size)
    for rows in (slice(start, start + step) for start in range(0, q.size, step)):
        r = np.multiply.outer(q[rows], order) % (8 * n + 4)
        base = np.where(r > 4 * n + 2, r - (8 * n + 4), r) * (math.pi / (4 * n + 2))
        for _ in range(3):
            angle = base + np.multiply.outer(delta[rows], order)
            delta[rows] += (np.cos(angle) @ c) / (np.sin(angle) @ slope)
        weights[rows] = 2.0 / (np.sin(base + np.multiply.outer(delta[rows], order)) @ slope) ** 2
    half = np.cos(theta + delta)
    half[n // 2:] = 0.0  # the middle node of an odd rule
    return np.concatenate((-half, half[: n // 2][::-1])), np.concatenate((weights, weights[: n // 2][::-1]))
