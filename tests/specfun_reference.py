"""`slowphoton.specfun`'s coefficient tables, the 40-digit values that check them, and the script that makes both.

`specfun` evaluates each function as a polynomial P in a mapped argument
(Horner, highest power first):

    J_nu(x)/x^nu, x <= 8:    (x^2 - z1)(x^2 - z2) * P(x^2/32 - 1), z1 and z2 the first two zeros
                             of J_nu squared, as doubles
    J_nu(x)/x^nu, x > 8:     M(u) cos(x - (2nu + 1)pi/4 + phi(u)/x)/x^(nu + 1/2), u = 128/x^2 - 1,
                             M the modulus sqrt(x(J^2 + Y^2)), phi the phase past its leading terms
    exp(-x)I_nu(x), x <= 12: exp(-x)(x/2)^nu sum_k (x^2/4)^k/(k!(k + nu)!), k <= 26: no table
    exp(-x)I_nu(x), x > 12:  P(1/x)/sqrt(x)
    erfcx(x), x >= 0:        (2 P(Z)/(L + x) + 1/sqrt(pi))/(L + x), Z = (L - x)/(L + x), L = 3.5,
                             Weideman's form (SIAM J. Numer. Anal. 31, 1497 (1994))

Each P is mpmath's `chebyfit` (near-minimax) at 40 digits, rounded to
doubles; the constant term of a J table is then moved by an ulp or two, so
that J0(0) = 1 and J1(x)/x = 1/2 at 0 hold exactly in specfun's doubles.  The values that check them are mpmath at 40 digits on the doubles
given, rounded once: J0 and J1 on [0, 1e4] with their first zeros, i0e and
i1e on [0, 1e6], erfcx on [0, 1e3], Gauss-Legendre nodes and weights (Newton
on mpmath's Legendre polynomials), and `propagate.phi_plus` on the EIT example
EitMedium(10, 1, 20, 30) over TimeGrid(-0.5, 2.5, 301), where exp(r^2)(1 + erf z)
underflows for delta_ph = 40.

    python tests/specfun_reference.py   # rewrites specfun_reference.json, prints specfun's tables
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 40
OUT = Path(__file__).with_name("specfun_reference.json")
J_CUT, I_CUT, ERFCX_L = 8.0, 12.0, 3.5
DEGREES = {"J_SMALL": 14, "J_LARGE": 9, "I_LARGE": 14, "ERFCX": 21}
RULES = (2, 3, 10, 21, 24, 32, 36, 53, 61, 72, 75)
PHI_MEDIUM = (10.0, 1.0, 20.0, 30.0)  # gamma_total, gamma_m, omega, thickness
PHI_GRID = (-0.5, 2.5, 301)
PHI_INDICES = (0, 50, 100, 117, 118, 150, 200, 250, 300)
PHI_DELTAS = (0.0, 1.0, 40.0)


def fit(f, degree, interval=(-1, 1)):
    """Near-minimax coefficients of f on the interval, highest power first, as doubles."""
    return [float(c) for c in mp.chebyfit(f, list(interval), degree + 1)]


def bessel_j_zeros(nu):
    return [float(mp.besseljzero(nu, k) ** 2) for k in (1, 2)]


def pinned(small, zeros, value):
    """small with its constant term moved by ulps until specfun's J_nu(0)/0**nu, in doubles, is value."""
    small = list(small)
    for _ in range(16):
        out = -small[0] + small[1]  # Horner at u = -1, in specfun's order of operations
        for ck in small[2:]:
            out = out * -1.0 + ck
        out = out * (0.0 - zeros[0]) * (0.0 - zeros[1])
        if out == value:
            return small
        small[-1] = math.nextafter(small[-1], math.inf if out < value else -math.inf)
    raise ArithmeticError("no constant term within 16 ulps gives the value at 0")


def j_tables(nu):
    z1, z2 = bessel_j_zeros(nu)

    def small(u):  # u = x^2/32 - 1
        y = (u + 1) * J_CUT**2 / 2
        x = mp.sqrt(y)
        value = mp.besselj(nu, x) / x**nu if y else mp.mpf(1) / 2**nu
        return value / ((y - z1) * (y - z2))

    def modulus_phase(u):  # u = 128/x^2 - 1
        if u == -1:
            return mp.sqrt(2 / mp.pi), mp.mpf(4 * nu * nu - 1) / 8
        x = J_CUT * mp.sqrt(2 / (u + 1))
        j, y = mp.besselj(nu, x), mp.bessely(nu, x)
        phase = mp.atan2(y, j) - (x - (2 * nu + 1) * mp.pi / 4)
        return mp.sqrt(x * (j * j + y * y)), x * (phase - 2 * mp.pi * mp.nint(phase / (2 * mp.pi)))

    return {
        f"J{nu}_SMALL": pinned(fit(small, DEGREES["J_SMALL"]), (z1, z2), 0.5**nu),
        f"J{nu}_MODULUS": fit(lambda u: modulus_phase(u)[0], DEGREES["J_LARGE"]),
        f"J{nu}_PHASE": fit(lambda u: modulus_phase(u)[1], DEGREES["J_LARGE"]),
    }


def i_tables(nu):
    def large(v):  # v = 1/x
        if v == 0:
            return 1 / mp.sqrt(2 * mp.pi)
        return mp.exp(-1 / v) * mp.besseli(nu, 1 / v) / mp.sqrt(v)

    return {f"I{nu}_LARGE": fit(large, DEGREES["I_LARGE"], (0, 1 / I_CUT))}


def erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


def erfcx_table():
    L = mp.mpf(ERFCX_L)

    def p(z):
        x = L * (1 - z) / (1 + z) if z > -1 else mp.inf
        if x == mp.inf:  # x*erfcx(x) - 1/sqrt(pi) ~ -1/(2 sqrt(pi) x^2)
            return mp.mpf(0)
        return (L + x) * ((L + x) * erfcx(x) - 1 / mp.sqrt(mp.pi)) / 2

    return {"ERFCX": fit(p, DEGREES["ERFCX"])}


def sweep(f, xs):
    return [[float(x), float(f(mp.mpf(float(x))))] for x in xs]


def legendre_rule(n):
    """(nodes, weights) ascending, Newton from the asymptotic start on mpmath's P_n."""
    nodes, weights = [], []
    for k in range(1, n // 2 + 1):
        phi = mp.pi * (4 * k - 1) / (4 * n + 2)
        t = mp.cos(phi + 1 / (8 * (n + mp.mpf(1) / 2) ** 2 * mp.tan(phi)))
        for _ in range(100):
            dp = n * (t * mp.legendre(n, t) - mp.legendre(n - 1, t)) / (t * t - 1)
            step = mp.legendre(n, t) / dp
            t -= step
            if abs(step) < mp.mpf(10) ** -38:
                break
        dp = n * (t * mp.legendre(n, t) - mp.legendre(n - 1, t)) / (t * t - 1)
        nodes.append(t)
        weights.append(2 / ((1 - t * t) * dp * dp))
    if n % 2:
        nodes.append(mp.mpf(0))
        weights.append(2 / (n * mp.legendre(n - 1, 0)) ** 2)
    full_nodes = [-t for t in nodes] + [t for t in reversed(nodes[: n // 2])]
    full_weights = weights + list(reversed(weights[: n // 2]))
    return {"nodes": [float(t) for t in full_nodes], "weights": [float(w) for w in full_weights]}


def phi_plus_cases():
    g, gm, om, tb = map(mp.mpf, PHI_MEDIUM)
    q = om**2 + gm * g
    t_d = tb * g * (om**2 - gm**2) / q**2
    delta_eff = mp.sqrt(q**3 / (tb * g * (om**2 * (g + 2 * gm) - gm**3)))
    times = np.linspace(*PHI_GRID)[list(PHI_INDICES)]
    cases = []
    for delta in PHI_DELTAS:
        r = delta / delta_eff
        values = [mp.exp(r * r) * mp.erfc(r - delta_eff * (mp.mpf(float(t)) - t_d) / 2) / 2 for t in times]
        cases.append({"delta_ph": delta, "values": [float(v) for v in values]})
    return cases


def dump(reference):
    """The JSON text, one sweep point, table or rule per line."""
    parts = []
    for key, value in reference.items():
        rows = map(json.dumps, value) if isinstance(value, list) else (
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
        brackets = "[]" if isinstance(value, list) else "{}"
        parts.append(f'"{key}": {brackets[0]}\n' + ",\n".join(rows) + f"\n{brackets[1]}")
    return "{" + ",\n".join(parts) + "}\n"


def main():
    tables = {**j_tables(0), **j_tables(1), **i_tables(0), **i_tables(1), **erfcx_table()}
    zeros = {f"J{nu}_ZEROS": bessel_j_zeros(nu) for nu in (0, 1)}
    j_args = np.concatenate([
        np.linspace(0.0, 20.0, 161), np.linspace(20.5, 100.0, 160), np.geomspace(100.5, 1e4, 120),
        [float(mp.besseljzero(nu, k)) for nu in (0, 1) for k in (1, 2, 3, 10)],
        np.nextafter(J_CUT, [0.0, 20.0]),
    ])
    i_args = np.concatenate([
        np.linspace(0.0, 30.0, 121), np.geomspace(30.5, 1e6, 160), np.nextafter(I_CUT, [0.0, 20.0]),
    ])
    e_args = np.concatenate([np.linspace(0.0, 10.0, 101), np.geomspace(10.5, 1e3, 80)])
    reference = {
        "tables": {**tables, **zeros},
        "j0": sweep(lambda x: mp.besselj(0, x), j_args),
        "j1": sweep(lambda x: mp.besselj(1, x), j_args),
        "i0e": sweep(lambda x: mp.exp(-x) * mp.besseli(0, x), i_args),
        "i1e": sweep(lambda x: mp.exp(-x) * mp.besseli(1, x), i_args),
        "erfcx": sweep(erfcx, e_args),
        "legendre": {str(n): legendre_rule(n) for n in RULES},
        "phi_plus": {"medium": PHI_MEDIUM, "grid": PHI_GRID, "indices": PHI_INDICES, "cases": phi_plus_cases()},
    }
    OUT.write_text(dump(reference))
    for name, values in {**zeros, **tables}.items():
        line, indent = f"_{name} = (", " " * (len(name) + 5)
        for v in values:
            if len(line) + len(repr(v)) > 116:
                print(line.rstrip())
                line = indent
            line += f"{v!r}, "
        print(line[:-2] + ")")


if __name__ == "__main__":
    main()
