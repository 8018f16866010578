"""High-precision reference for the sweep columns, evaluated with mpmath.

Each function transcribes a closed form from its definition and evaluates
it at ``DPS`` decimal digits; the minimisations over ``s`` and the radial
integral of the local lower bound are done in mpmath too, so the reference
shares no floating-point code path with the package.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
#: the package documents its s-minimisations on this clipped interval (the
#: weights degenerate at s in {0, 1}); for mu above about 10 the infimum sits
#: at the clip s = 1 - 1e-6, so the reference must use the same interval
S_INTERVAL = ("1e-6", "0.999999")
#: golden-section stopping width in s
_S_TOL = mp.mpf("1e-18")


def _weights(s, x):
    """``(g_s(x), L_s(x))``: the overlap prefactor and width weights."""
    if x == 1:
        return mp.mpf(1), mp.mpf(1)
    plus, minus = (x + 1) ** s, (x - 1) ** s
    return 2**s / (plus - minus), (plus + minus) / (plus - minus)


def overlap_global(mu, s):
    """Tr(rho_0^s rho_1^(1-s)) of the uncorrelated and correlated pair."""
    g_mu, l_mu = _weights(s, mu)
    g_plus, l_plus = _weights(1 - s, 2 * mu - 1)
    return 4 * g_mu**2 * g_plus / ((l_mu + 1) * (l_mu + l_plus))


def _epsilon(mu):
    return 2 * (mu - 1) / (mu + 1)


def overlap_heterodyne(mu, s):
    """Modulation-averaged overlap after heterodyne conditioning."""
    eps = _epsilon(mu)
    g_mu, l_mu = _weights(s, mu)
    g_nu, l_nu = _weights(1 - s, 1 + eps)
    return 2 * g_mu * g_nu / (l_mu + l_nu + (mu - 1) * eps / 2)


def _minimum(objective):
    """Golden-section minimum of a log-convex function on ``S_INTERVAL``."""
    lo, hi = (mp.mpf(end) for end in S_INTERVAL)
    ratio = (mp.sqrt(5) - 1) / 2
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = objective(a), objective(b)
    while hi - lo > _S_TOL:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = objective(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = objective(b)
    return min(fa, fb)


def p_lower_local(mu):
    """Averaged-fidelity lower bound, integrated over the displacement law."""
    eps = _epsilon(mu)
    sigma2 = mu - 1 - eps
    den = 1 + mu * (1 + eps) - 2 * (mu - 1) * mp.sqrt(2 * mu / (mu + 1))
    decay = eps**2 * 2 * sigma2 / (4 * (mu + 1 + eps))

    def integrand(u):
        f = 2 * mp.exp(-decay * u) / den
        return mp.exp(-u) * (1 - mp.sqrt(1 - f)) / 2

    return mp.quad(integrand, [0, 1, 10, 100, mp.inf])


def entropy_h(x):
    if x == 1:
        return mp.mpf(0)
    a, b = (x + 1) / 2, (x - 1) / 2
    return (a * mp.log(a) - b * mp.log(b)) / mp.log(2)


def row(mu: float) -> dict[str, float]:
    """Reference values of the checked sweep columns at the float ``mu``."""
    with mp.workdps(DPS):
        m = mp.mpf(mu)
        q_global = _minimum(lambda s: overlap_global(m, s))
        q_local = _minimum(lambda s: overlap_heterodyne(m, s))
        bhatt = overlap_global(m, mp.mpf("0.5"))
        h_mu, h_mid = entropy_h(m), entropy_h((3 * m - 1) / (m + 1))
        values = {
            "delta_c": h_mu - h_mid,
            "delta_d": h_mu - entropy_h(2 * m - 1) + h_mid,
            "p_plus_global": q_global / 2,
            "p_minus_global": (1 - mp.sqrt(1 - bhatt**2)) / 2,
            "p_plus_local": q_local / 2,
            "p_minus_local": p_lower_local(m),
            "kappa": -mp.log(q_global),
            "kappa_loc": -mp.log(q_local),
        }
        return {name: float(value) for name, value in values.items()}
