"""40-digit references for the oracle's closed-form subtraction, and the script that makes them.

`propagate._subtraction` returns b(s) * (R(A(s)l) - 1) on a time grid, R the
diagonal [3/3] Pade form Q(-u)/Q(u), Q(u) = 1 + u/2 + u**2/10 + u**3/120, of
exp(-u).  With r_i the roots of Q, c_i the residues of R there and
w_i = -c_i/r_i**2, R(u) - 1 = sum_i w_i*u/(1 - u/r_i), and with
A(s)l = C(sI - M)^(-1)B each term is the impulse response of one chain: the
source's causal state (rate -d) in series with M + B*C/r_i.  This script finds
r_i, c_i and w_i in mpmath, builds the same chains from the media's float
parameters, so the reference is exact for the configs given, and evaluates

    tau > 0:   sum_i w_i * C @ expm(chain_i*tau) @ x0_i
    tau <= 0:  c_m * exp(d*tau) * (R(A(d)l) - 1)

with x0_i = c_p*e_0 + c_m*(d - M - B*C/r_i)^(-1)B on the medium's states, at 40
digits.  It also sums |a_k| over the Taylor series sum_{k>=7} a_k u**k of
exp(-u) - R(u), the constant of the stated bound |exp(-u) - R(u)| <=
sum|a_k|*|u|**7 for |u| <= 1.  The cases sit at and around coincident poles:
the critical EIT coupling Omega = (Gamma - gamma_m)/2, lines just broader and
just narrower than the photon, Gamma = delta_ph, and a line whose real-pole
chain decays at the source's rate, Gamma - alpha0*l/r_1 = delta_ph.  The "fine" cases take the EIT preset's medium
on its grid, whose linspace times are not whole multiples of the spacing, at
the float times numpy.linspace gives.

    python tests/subtraction_reference.py   # rewrites subtraction_reference.json
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 40
OUT = Path(__file__).with_name("subtraction_reference.json")
DELTA_PH = 1.0
GRID = (-2.0, 10.0, 49)  # spacing 0.25: tau = 0 at index 8
INDICES = (0, 4, 8, 9, 10, 12, 16, 24, 36, 48)
FINE_MEDIUM = [10.0, 1.0, 20.0, 30.0]  # the EIT example of the presets
FINE_GRID = (-2.0, 15.0, 1701)
FINE_INDICES = (0, 200, 201, 205, 230, 260, 300, 350, 500, 900, 1700)
SERIES_TERMS = 400  # of exp(-u) - R(u); past k = 7 they fall like 4.64**-k
# (c_p, c_m): the source as c_p*exp(-d*t)Theta(t) + c_m*exp(d*t)Theta(-t)
SOURCES = {
    "exponential_causal": (1.0, 0.0),
    "symmetric_part": (0.5, 0.5),
    "antisymmetric_part": (0.5, -0.5),
}


def q(u):
    return 1 + u / 2 + u**2 / 10 + u**3 / 120


def pade():
    """(r_i, w_i), the real root first, then the root with Im r < 0 and its conjugate."""
    roots = sorted(mp.polyroots([mp.mpf(1) / 120, mp.mpf(1) / 10, mp.mpf(1) / 2, 1], extraprec=200),
                   key=lambda r: (abs(mp.im(r)) > 1e-30, mp.im(r)))
    weights = [-(q(-r) / (mp.mpf(1) / 2 + r / 5 + r**2 / 40)) / r**2 for r in roots]
    return roots, weights


def error_sum():
    """sum_{k>=7} |a_k| of exp(-u) - R(u) = sum_k a_k u**k."""
    series = mp.taylor(lambda u: q(-u) / q(u), 0, SERIES_TERMS)
    return sum(abs((-1) ** k / mp.factorial(k) - series[k]) for k in range(7, SERIES_TERMS + 1))


def media():
    """(kind, parameters) near the coincident poles: EitMedium(10, 1, 4.5(1 +- 10^-k), 30) and its critical coupling,
    BroadLine(1 +- 10^-k, 10/(1 +- 10^-k)), and BroadLine(0.5, -r_1(1 +- 10^-k)), whose real-pole chain decays at
    rate 0.5 + 0.5*(1 +- 10^-k), delta_ph = 1 at k = inf."""
    r_1 = -float(pade()[0][0])
    yield "eit", [10.0, 1.0, 4.5, 30.0]
    for k in range(3, 13):
        eps = 10.0**-k
        for sign in (1.0, -1.0):
            yield "eit", [10.0, 1.0, 4.5 * (1.0 + sign * eps), 30.0]
            yield "broad", [0.5, r_1 * (1.0 + sign * eps)]
            yield "broad", [1.0 + sign * eps, 10.0 / (1.0 + sign * eps)]


def system(kind, params):
    """(M, alpha0_l, A(d)l) of the medium, alpha0_l rounded as the library rounds it."""
    d = mp.mpf(DELTA_PH)
    if kind == "broad":
        gamma, thickness = params
        alpha0_l = thickness * gamma
        return mp.matrix([[-gamma]]), alpha0_l, alpha0_l / (d + gamma)
    gamma, gamma_m, omega, thickness = params
    alpha0_l = thickness * gamma
    response = alpha0_l * (d + gamma_m) / ((d + gamma) * (d + mp.mpf(gamma_m)) + mp.mpf(omega) ** 2)
    return mp.matrix([[-gamma, -omega], [omega, -gamma_m]]), alpha0_l, response


def signals(kind, params, times):
    m, alpha0_l, response = system(kind, params)
    q_states = m.rows
    d = mp.mpf(DELTA_PH)
    roots, weights = pade()
    before = q(-response) / q(response) - 1  # R(A(d)l) - 1
    chains = []
    for r, weight in zip(roots, weights):
        med = m.copy()
        med[0, 0] += alpha0_l / r  # B*C/r: B = e_1, C = alpha0_l*e_1
        chain = mp.zeros(1 + q_states, 1 + q_states)
        chain[0, 0] = -d
        chain[1, 0] = 1
        for i in range(q_states):
            for j in range(q_states):
                chain[1 + i, 1 + j] = med[i, j]
        feed = mp.matrix([1] + [0] * (q_states - 1))
        x_med = mp.lu_solve(d * mp.eye(q_states) - med, feed)
        exps = {t: mp.expm(chain * t) for t in times if t > 0}
        chains.append((weight, x_med, exps))
    out = {}
    for source, (c_p, c_m) in SOURCES.items():
        values = []
        for t in times:
            if t > 0:
                total = 0
                for weight, x_med, exps in chains:
                    x0 = mp.matrix([c_p] + [c_m * x_med[i] for i in range(q_states)])
                    total += weight * alpha0_l * (exps[t] * x0)[1]
                values.append(mp.re(total))
            else:
                values.append(c_m * mp.exp(d * t) * before)
        out[source] = [float(v) for v in values]
    return out


def cases(media_list, grid, indices):
    times = [mp.mpf(float(t)) for t in np.linspace(*grid)[list(indices)]]
    return [{"medium": kind, "params": params, "source": source, "signal": values}
            for kind, params in media_list
            for source, values in signals(kind, params, times).items()]


def main():
    roots, weights = pade()
    head = json.dumps({
        "delta_ph": DELTA_PH, "grid": GRID, "indices": INDICES, "fine_grid": FINE_GRID, "fine_indices": FINE_INDICES,
        "pade_poles": [[float(mp.re(r)), float(mp.im(r))] for r in roots],
        "pade_weights": [[float(mp.re(w)), float(mp.im(w))] for w in weights],
        "pade_error_sum": float(error_sum()),
    })
    blocks = []
    for key, found in (("cases", cases(media(), GRID, INDICES)),
                       ("fine_cases", cases([("eit", FINE_MEDIUM)], FINE_GRID, FINE_INDICES))):
        rows = ",\n".join(json.dumps(case) for case in found)
        blocks.append(f'"{key}": [\n{rows}\n]')
    OUT.write_text(f'{head[:-1]}, {", ".join(blocks)}}}\n')


if __name__ == "__main__":
    main()
