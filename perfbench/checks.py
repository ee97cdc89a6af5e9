"""Output checks for the benchmark, computed apart from the package's R0 path.

Nothing here imports ngmpn. The closed forms are plain Python, spectra come
from numpy, final sizes from bisection and the SIRS reference curve from a
classical Runge-Kutta integration. Every check raises CheckFailed with a
message naming what disagreed.
"""
from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


# ------------------------------------------------------------ closed forms

def _sirs(p):
    return p["beta"] / p["gamma"]


def _seir(p):
    s_star = p["Pi"] / p["mu"]
    return p["beta"] * s_star * p["eta"] / ((p["eta"] + p["mu"]) * (p["alpha"] + p["mu"]))


def _seeir(p):
    mu = p["mu"]
    reach = p["p"] * p["nu1"] / (p["nu1"] + mu) + (1.0 - p["p"]) * p["nu2"] / (p["nu2"] + mu)
    return reach * p["beta"] / (p["gamma"] + mu)


def _covid(p):
    leave_s = p["phi_s"] + p["gamma_s"] + p["delta_s"]
    return (p["beta_a"] * p["r"] / p["gamma_a"]
            + p["beta_s"] * (1.0 - p["r"]) / leave_s
            + p["beta_h"] * (1.0 - p["r"]) * p["phi_s"] / (leave_s * (p["gamma_h"] + p["delta_h"])))


def _nonlinear(p):
    return p["sigma"] * p["beta"] / ((p["sigma"] + p["mu"]) * (p["gamma"] + p["mu"]))


def _patch2(p):
    # At the DFE only susceptibles are present, S_k = Pi_k/mu_k, so the
    # residence-weighted populations of the two patches are
    s = (p["Pi1"] / p["mu1"], p["Pi2"] / p["mu2"])
    pop = (p["m11"] * s[0] + p["m21"] * s[1], p["m12"] * s[0] + p["m22"] * s[1])
    beta = (p["beta1"], p["beta2"])
    m = ((p["m11"], p["m12"]), (p["m21"], p["m22"]))        # m[home][patch]
    inf = ((p["p11"], p["p12"]), (p["p21"], p["p22"]))      # inf[home][patch]
    # an exposed person of home j reaches I_j with probability nu/(nu+mu) and
    # stays infectious 1/(gamma+delta+mu) on average
    life = tuple(p[f"nu{j}"] / ((p[f"nu{j}"] + p[f"mu{j}"])
                                * (p[f"gamma{j}"] + p[f"delta{j}"] + p[f"mu{j}"]))
                 for j in (1, 2))
    k = [[sum(beta[c] * m[i][c] * s[i] * inf[j][c] / pop[c] for c in (0, 1)) * life[j]
          for j in (0, 1)] for i in (0, 1)]
    tr = k[0][0] + k[1][1]
    det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
    return 0.5 * (tr + math.sqrt(tr * tr - 4.0 * det))


def _vectorborne(p):
    host = p["beta_hv"] * (p["Pi"] / p["mu_h"]) / (p["alpha"] + p["mu_h"] + p["sigma"] - p["delta"])
    vector = p["beta_vh"] * (p["Lam"] / p["mu_v"]) / p["mu_v"]
    return math.sqrt(host * vector)


CLOSED_FORMS = {
    "sirs": _sirs, "seir": _seir, "seeir": _seeir, "covid": _covid,
    "nonlinear": _nonlinear, "patch2": _patch2, "vectorborne": _vectorborne,
}
# each stochastic twin shares the next-generation matrix of its vapn model
TWINS = {"sirs_spn": "sirs", "seir_spn": "seir"}


def closed_form_r0(model_id: str, params: dict) -> float:
    return CLOSED_FORMS[TWINS.get(model_id, model_id)](params)


def check_r0(model_id: str, params: dict, r0: float, rel: float = 1e-9):
    """Matrix R0 against the closed form, at the acceptance tolerance."""
    ref = closed_form_r0(model_id, params)
    if not abs(r0 - ref) <= rel * (1.0 + abs(ref)):
        raise CheckFailed(f"{model_id}: R0 {r0!r} differs from closed form {ref!r} "
                          f"at {params}")


def check_r0_12_digits(model_id: str, params: dict, r0: float):
    """The CLI rounds to 12 significant digits: agreement to that precision
    means a relative difference of at most half a unit in the 12th digit."""
    ref = closed_form_r0(model_id, params)
    if not abs(r0 - ref) <= 5e-12 * abs(ref):
        raise CheckFailed(f"{model_id}: CLI R0 {r0!r} differs from closed form "
                          f"{ref!r} beyond 12 significant digits")


def check_threshold(model_id: str, F, V, r0: float):
    """Theorem 2 of van den Driessche & Watmough (2002):
    sign(s(F - V)) = sign(R0 - 1), with s the spectral abscissa."""
    if abs(r0 - 1.0) <= 1e-9:
        return   # at threshold the sign of s is below rounding
    abscissa = float(np.max(np.linalg.eigvals(np.asarray(F) - np.asarray(V)).real))
    if (abscissa > 0.0) != (r0 > 1.0):
        raise CheckFailed(f"{model_id}: s(F-V) = {abscissa!r} but R0 = {r0!r}")


# ------------------------------------------------------------ final size

def final_size_root(r0: float, s0: float, n: float) -> float:
    """Root of ln(s0/s) = r0*(n - s)/n on (0, s0) by bisection.

    The left side minus the right is +inf at s -> 0, negative at s0 when
    s0 < n, and convex, so the root in between is unique.
    """
    lo, hi = 1e-300, s0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log(s0 / mid) - r0 * (n - mid) / n > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Over 80 seeds of both ode_sweep grids the simulated final size was never
# further than 0.014*dt of the population from the bisection root: the
# first-order error of forward Euler, and on nonlinear also the saturating
# incidence's departure from the relation. The tolerance allows 0.04*dt.
EULER_FINAL_SIZE_PER_DT = 0.04


def check_sweep_point(model_id: str, params: dict, r0_alg, r0_hat,
                      s0: float, n: float, rel: float, dt: float,
                      conv_tol: float, error=None):
    """One sweep row: no error, the algebraic R0 on the closed form, the
    attack-rate estimate within `rel` of it, and the simulated final size
    where bisection of the final-size relation puts it.

    The estimator's r0_hat is ln(s0/s_inf)*n/(n - s_inf), a function of the
    simulated s_inf alone, so bisection on r0_hat gives s_inf back. Its
    tolerance is the plateau tolerance plus the Euler error for `dt`, and
    does not depend on `rel`: below R0 = 3 it is tighter than the R0 check,
    above it looser, so neither check implies the other.
    """
    if error is not None:
        raise CheckFailed(f"{model_id} sweep point {params} failed: {error}")
    ref = closed_form_r0(model_id, params)
    if r0_alg is None or not abs(r0_alg - ref) <= 1e-9 * (1.0 + ref):
        raise CheckFailed(f"{model_id} sweep point {params}: algebraic R0 "
                          f"{r0_alg!r} vs closed form {ref!r}")
    if r0_hat is None or not abs(r0_hat - ref) <= rel * ref:
        raise CheckFailed(f"{model_id} sweep point {params}: estimate {r0_hat!r} "
                          f"not within {rel:.1%} of {ref!r}")
    s_inf = final_size_root(r0_hat, s0, n)
    root = final_size_root(ref, s0, n)
    tol = (conv_tol + EULER_FINAL_SIZE_PER_DT * dt) * n
    if not abs(s_inf - root) <= tol:
        raise CheckFailed(f"{model_id} sweep point {params}: final size {s_inf!r} "
                          f"vs bisection root {root!r} (tolerance {tol:.6g})")


# ------------------------------------------------------------ stochastic

def check_markings(markings, total=None, label: str = ""):
    """Every marking is a tuple of non-negative integers, summing to `total`
    when the net conserves tokens."""
    for k, mk in enumerate(markings):
        for v in mk:
            if not isinstance(v, int) or v < 0:
                raise CheckFailed(f"{label} sample {k}: marking {mk} is not a "
                                  "tuple of non-negative integers")
        if total is not None and sum(mk) != total:
            raise CheckFailed(f"{label} sample {k}: marking {mk} sums to "
                              f"{sum(mk)}, not {total}")


def sirs_rk4(beta: float, gamma: float, delta: float, marking, t_end: float,
             h: float = 1e-3):
    """Deterministic SIRS curve: (times, I values) on the unit-time grid up to
    t_end, and the time of the largest I on the step grid."""
    s, i, r = map(float, marking)
    n = s + i + r

    def rhs(s, i, r):
        inf = beta * s * i / n
        return -inf + delta * r, inf - gamma * i, gamma * i - delta * r

    per_unit = int(round(1.0 / h))
    steps = int(round(t_end / h))
    times, values = [0.0], [i]
    peak_i, peak_t = i, 0.0
    for k in range(1, steps + 1):
        a = rhs(s, i, r)
        b = rhs(s + 0.5 * h * a[0], i + 0.5 * h * a[1], r + 0.5 * h * a[2])
        c = rhs(s + 0.5 * h * b[0], i + 0.5 * h * b[1], r + 0.5 * h * b[2])
        d = rhs(s + h * c[0], i + h * c[1], r + h * c[2])
        s += h / 6.0 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        i += h / 6.0 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
        r += h / 6.0 * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
        if i > peak_i:
            peak_i, peak_t = i, k * h
        if k % per_unit == 0:
            times.append(k * h)
            values.append(i)
    return times, values, peak_t


def check_mean_tracks(ref_times, ref_values, samples, z: float = 5.0,
                      bias: float = 0.003):
    """Replicate mean of I against the deterministic curve.

    `samples` maps each reference time to the list of replicate values. The
    bound is z standard errors of the replicates' mean, plus `bias` of the
    curve for the O(1/N) gap between the Markov chain's mean and its
    mean-field limit.
    """
    checked = 0
    for t, det in zip(ref_times, ref_values):
        xs = samples.get(t)
        if not xs or t == 0.0:
            continue
        if len(xs) < 2:
            raise CheckFailed("need at least two replicates for a standard error")
        k = len(xs)
        mean = sum(xs) / k
        se = math.sqrt(sum((x - mean) ** 2 for x in xs) / (k - 1) / k)
        if abs(mean - det) > z * se + bias * det:
            raise CheckFailed(f"t={t:g}: replicate mean I {mean:.6g} vs "
                              f"deterministic {det:.6g} (SE {se:.4g}, k={k})")
        checked += 1
    if checked == 0:
        raise CheckFailed("no sample time overlaps the deterministic curve")


def check_replay(first, again):
    """A seeded replicate run twice gives the same samples, bit for bit."""
    if tuple(first.times) != tuple(again.times) or \
            tuple(first.markings) != tuple(again.markings):
        raise CheckFailed(f"replicate with seed {first.rng_seed} did not replay")
