"""40-digit references for the oracle's closed-form subtraction, and the script that makes them.

`propagate._subtraction` returns b(s) * sum_{k=1..K} (-A(s)l)^k / k! on a time
grid, as the impulse response of a chain matrix: the source's causal state
(rate -d) in series with K medium blocks M, each fed by B*C from the one
before, with A(s)l = C(sI - M)^(-1)B.  This script builds the same chain in
mpmath from the media's float parameters, so the reference is exact for the
configs given, and evaluates

    tau > 0:   sum_k (-1)^k/k! * C_k @ expm(chain*tau) @ x0
    tau <= 0:  c_m * exp(d*tau) * sum_k G^k/k!,  G = -A(d)l

with x0 = c_p*e_0 + c_m*(d - chain_med)^(-1)B_chain, at 40 digits.  The
cases sit at and around the coincident poles that partial fractions could
not handle: the critical EIT coupling Omega = (Gamma - gamma_m)/2 and a
broad line at Gamma = delta_ph.  The "fine" cases take the EIT preset's
medium on its grid, whose linspace times are not whole multiples of the
spacing, at the float times numpy.linspace gives.

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
ORDERS = (2, 3)
FINE_MEDIUM = [10.0, 1.0, 20.0, 30.0]  # the EIT example of the presets
FINE_GRID = (-2.0, 15.0, 1701)
FINE_INDICES = (0, 200, 201, 205, 230, 260, 300, 350, 500, 900, 1700)
# (c_p, c_m): the source as c_p*exp(-d*t)Theta(t) + c_m*exp(d*t)Theta(-t)
SOURCES = {
    "exponential_causal": (1.0, 0.0),
    "symmetric_part": (0.5, 0.5),
    "antisymmetric_part": (0.5, -0.5),
}


def media():
    """(kind, parameters) of EitMedium(10, 1, 4.5(1 +- 10^-k), 30) and BroadLine(1 + 10^-k, 10/(1 + 10^-k))."""
    for k in range(3, 13):
        eps = 10.0**-k
        for sign in (1.0, -1.0):
            yield "eit", [10.0, 1.0, 4.5 * (1.0 + sign * eps), 30.0]
        yield "broad", [1.0 + eps, 10.0 / (1.0 + eps)]


def system(kind, params):
    """(M, alpha0_l) of the medium, alpha0_l rounded as the library rounds it."""
    if kind == "broad":
        gamma, thickness = params
        return mp.matrix([[-gamma]]), thickness * gamma
    gamma, gamma_m, omega, thickness = params
    return mp.matrix([[-gamma, -omega], [omega, -gamma_m]]), thickness * gamma


def chain(m, alpha0_l, order):
    q = m.rows
    n = 1 + order * q
    big = mp.zeros(n, n)
    big[0, 0] = -DELTA_PH
    for k in range(order):
        start = 1 + k * q
        for i in range(q):
            for j in range(q):
                big[start + i, start + j] = m[i, j]
        # B*C (or B from the source state) into the block's first row
        big[start, start - q if k else 0] = alpha0_l if k else 1
    return big


def readout(q, alpha0_l, order, state):
    """Per-order (-1)^k/k! * C @ state over the medium blocks, summed."""
    return sum(
        (-1) ** k / mp.factorial(k) * alpha0_l * state[1 + (k - 1) * q]
        for k in range(1, order + 1)
    )


def signals(kind, params, order, times):
    m, alpha0_l = system(kind, params)
    q = m.rows
    big = chain(m, alpha0_l, order)
    n = big.rows
    med = mp.matrix([[big[i, j] for j in range(1, n)] for i in range(1, n)])
    feed = mp.matrix([big[i, 0] for i in range(1, n)])
    x_med = mp.lu_solve(DELTA_PH * mp.eye(n - 1) - med, feed)
    # G = -A(d)l: the anticausal source's orders before tau = 0
    d = mp.mpf(DELTA_PH)
    if kind == "broad":
        g = -alpha0_l / (d + params[0])
    else:
        gamma, gamma_m, omega, _ = map(mp.mpf, params)
        g = -alpha0_l * (d + gamma_m) / ((d + gamma) * (d + gamma_m) + omega**2)
    before = sum(g**k / mp.factorial(k) for k in range(1, order + 1))
    exps = {t: mp.expm(big * t) for t in times if t > 0}
    out = {}
    for source, (c_p, c_m) in SOURCES.items():
        x0 = mp.matrix([c_p] + [c_m * x_med[i] for i in range(n - 1)])
        values = []
        for t in times:
            if t > 0:
                values.append(readout(q, alpha0_l, order, exps[t] * x0))
            else:
                values.append(c_m * mp.exp(DELTA_PH * t) * before)
        out[source] = [float(v) for v in values]
    return out


def cases(media_list, grid, indices):
    times = [mp.mpf(float(t)) for t in np.linspace(*grid)[list(indices)]]
    out = []
    for kind, params in media_list:
        for order in ORDERS:
            for source, values in signals(kind, params, order, times).items():
                out.append({"medium": kind, "params": params, "order": order,
                            "source": source, "signal": values})
    return out


def main():
    head = json.dumps({"delta_ph": DELTA_PH, "grid": GRID, "indices": INDICES,
                       "fine_grid": FINE_GRID, "fine_indices": FINE_INDICES})
    blocks = []
    for key, found in (("cases", cases(media(), GRID, INDICES)),
                       ("fine_cases", cases([("eit", FINE_MEDIUM)], FINE_GRID, FINE_INDICES))):
        rows = ",\n".join(json.dumps(case) for case in found)
        blocks.append(f'"{key}": [\n{rows}\n]')
    OUT.write_text(f'{head[:-1]}, {", ".join(blocks)}}}\n')


if __name__ == "__main__":
    main()
