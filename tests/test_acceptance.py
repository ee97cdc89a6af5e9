"""End-to-end acceptance gate.

One test per release criterion, each at its stated tolerance and time
budget, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""
import math
import random
import time

import pytest

from ngmpn.estimate import SweepConfig, attack_rate_r0, converged_run, sweep
from ngmpn.expr import eval_expr, parse_expr
from ngmpn.linalg import eigenvalues
from ngmpn.modelzoo import builtin, oracle_r0, zoo_entry, zoo_ids
from ngmpn.ngm import ngm_r0
from ngmpn.sim import run_spn_replicates, run_vapn

CLOSED_FORM_IDS = ("sirs", "seir", "seeir", "covid", "nonlinear",
                   "vectorborne", "patch2")


def linspace(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count - 1)] + [hi]


def test_criterion_1_closed_form_agreement_on_random_draws():
    # every built-in with a closed form, 100 uniform draws from the
    # documented ranges, matrix pipeline vs direct formula, under 10s
    t0 = time.perf_counter()
    for i, mid in enumerate(CLOSED_FORM_IDS):
        entry = zoo_entry(mid)
        m = builtin(mid)
        rng = random.Random(20260814 + i)
        for _ in range(100):
            draw = {p: rng.uniform(s.lo, s.hi)
                    for p, s in entry.params.items()}
            alg = ngm_r0(m, params=draw).r0
            ref = oracle_r0(entry, draw)
            assert abs(alg - ref) <= 1e-9 * (1 + abs(ref)), (mid, draw)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_arc_weight_and_multiplicity_encodings_agree():
    # the same epidemiology written as rate expressions on arcs (vapn) and
    # as integer-multiplicity mass action (spn) must produce identical
    # transmission and transfer Jacobians, entry by entry
    for vap, spn in (("sirs", "sirs_spn"), ("seir", "seir_spn")):
        mv, ms = builtin(vap), builtin(spn)
        shared = sorted(set(mv.params) & set(ms.params))
        entry = zoo_entry(vap)
        rng = random.Random(9090)
        for _ in range(50):
            draw = {p: rng.uniform(entry.params[p].lo, entry.params[p].hi)
                    for p in shared}
            a = ngm_r0(mv, params=draw)
            b = ngm_r0(ms, params=draw)
            for ra, rb in zip(a.F, b.F):
                assert all(abs(x - y) <= 1e-12 for x, y in zip(ra, rb))
            for ra, rb in zip(a.V, b.V):
                assert all(abs(x - y) <= 1e-12 for x, y in zip(ra, rb))


def test_criterion_3_sirs_grid_every_point_under_one_percent():
    m = builtin("sirs")
    cfg = SweepConfig(dt=0.05, overrides={"delta": 0.0},
                      marking0=(999999.0, 1.0, 0.0))
    t0 = time.perf_counter()
    report = sweep(m, {"beta": linspace(0.1, 0.5, 5),
                       "gamma": linspace(0.05, 0.25, 5)}, cfg)
    elapsed = time.perf_counter() - t0
    assert report.failures == 0
    assert report.rrmse < 0.01, report.summary()
    assert report.max_rel_err < 0.01, report.summary()
    assert elapsed < 120.0


def test_criterion_4_saturating_incidence_grid_rrmse():
    m = builtin("nonlinear")
    cfg = SweepConfig(dt=0.02, overrides={"mu": 0.0})
    t0 = time.perf_counter()
    report = sweep(m, {"beta": [0.3, 0.4, 0.5, 0.6],
                       "gamma": [0.2, 0.24, 0.28, 0.32],
                       "sigma": [0.15, 0.2, 0.35, 0.5]}, cfg)
    elapsed = time.perf_counter() - t0
    assert report.failures == 0
    assert report.rrmse < 0.012, report.summary()
    assert elapsed < 180.0


def test_criterion_5_matrix_structure_at_the_disease_free_equilibrium():
    for mid in zoo_ids():
        res = ngm_r0(builtin(mid))
        # new infections are non-negative
        assert all(x >= -1e-12 for row in res.F for x in row), mid
        # transfers leave the infected set only through the diagonal
        for i, row in enumerate(res.V):
            for j, x in enumerate(row):
                if i != j:
                    assert x <= 1e-12, (mid, i, j)
        # -V is a stable matrix (all eigenvalues in the left half plane)
        negv = [[-x for x in row] for row in res.V]
        assert all(ev.real < 0 for ev in eigenvalues(negv)), mid
        # the next-generation matrix has a real dominant eigenvalue
        assert abs(res.diagnostics["dominant_imag"]) <= 1e-9 * (1 + res.r0)


def test_criterion_6a_compiled_stepper_equals_independent_euler():
    def hand_euler(m, nsteps, dt):
        arcs = []
        for arc in m.arcs:
            w = parse_expr(arc.weight) if isinstance(arc.weight, str) \
                else arc.weight
            arcs.append((arc.source, arc.target, w))
        names = m.place_names()
        mk = list(m.initial_marking())
        for _ in range(nsteps):
            env = dict(m.params)
            env.update(zip(names, mk))
            tot = mk[0]
            for v in mk[1:]:
                tot = tot + v
            env["N"] = tot
            pos = [0.0] * len(names)
            neg = [0.0] * len(names)
            for src, dst, w in arcs:
                v = eval_expr(w, env)
                if src in names:
                    neg[names.index(src)] += v
                if dst in names:
                    pos[names.index(dst)] += v
            nxt = []
            for i in range(len(names)):
                ni = mk[i] + dt * (pos[i] - neg[i])
                if ni < 0.0:
                    ni = 0.0
                nxt.append(ni)
            mk = nxt
        return mk

    for mid in zoo_ids():
        m = builtin(mid)
        if m.kind != "vapn":
            continue
        ref = hand_euler(m, 1000, 0.01)
        got = run_vapn(m, 10.0, dt=0.01, sample_every=10 ** 9).final()
        assert max(abs(a - b) for a, b in zip(ref, got)) <= 1e-10, mid


def test_criterion_6b_replicate_mean_tracks_deterministic_prepeak():
    ms = builtin("sirs_spn")
    mv = builtin("sirs")
    mk0 = ms.initial_marking()   # 2% seeded in N=1e5
    det = run_vapn(mv, 40.0, dt=0.01, params=ms.params, marking0=mk0,
                   sample_every=100)
    peak = max(range(len(det.times)), key=lambda i: det.markings[i][1])
    t_peak = det.times[peak]
    det_i = {round(t): mk[1] for t, mk in zip(det.times, det.markings)}

    reps = run_spn_replicates(ms, t_peak, seed=20260814, replicates=50,
                              sample_dt=1.0)
    for j, t in enumerate(reps[0].times):
        tt = round(t)
        if tt < 1 or tt > t_peak or tt not in det_i:
            continue
        mean_i = sum(r.markings[j][1] for r in reps) / len(reps)
        assert abs(mean_i - det_i[tt]) <= 0.02 * det_i[tt], (tt, mean_i)


def test_criterion_7_attack_rate_estimator_recovers_known_r0():
    def final_size_root(r0, s0, n):
        # brute-force bisection of ln(s0/s) = r0*(n - s)/n on (0, s0)
        g = lambda s: math.log(s0 / s) - r0 * (n - s) / n
        lo, hi = 1e-12 * n, s0
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    m = builtin("sirs")
    for r0 in (1.5, 2.5, 3.5, 5.0):
        params = {"beta": 0.1 * r0, "gamma": 0.1, "delta": 0.0}
        cfg = SweepConfig(dt=0.01, marking0=(999.0, 1.0, 0.0))
        traj = converged_run(m, ngm_r0(m, params=params), cfg)
        est = attack_rate_r0(traj, "S", 1000.0)
        assert abs(est.r0_hat - r0) / r0 <= 0.005, (r0, est.r0_hat)
        # the simulated final size lands on the root of the size relation
        root = final_size_root(r0, 999.0, 1000.0)
        assert abs(est.s_inf - root) <= 1.0, (r0, est.s_inf, root)


def test_criterion_8_external_toolchain_comparison():
    pytest.skip("excluded: side-by-side trajectory figures against the "
                "MATLAB/GPenSim and R implementations need those external "
                "toolchains; the quantities they would compare are covered "
                "natively by criteria 3, 4 and 7")
