"""Self-tests of the benchmark's checks: each accepts the right answer and
rejects a deliberately wrong one.

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parent / "src" / "ngmpn" / "models" / "manifest.json"


def defaults():
    manifest = json.loads(MANIFEST.read_text())
    return {m["id"]: {k: v["default"] for k, v in m["params"].items()}
            for m in manifest["models"]}


ALL_IDS = ("sirs", "sirs_spn", "seir", "seir_spn", "seeir", "covid",
           "nonlinear", "patch2", "vectorborne")


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_r0_check_rejects_a_relative_error_of_1e_6(model_id):
    p = defaults()[model_id]
    ref = checks.closed_form_r0(model_id, p)
    checks.check_r0(model_id, p, ref)
    with pytest.raises(CheckFailed):
        checks.check_r0(model_id, p, ref * (1.0 + 1e-6))


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_twelve_digit_check_accepts_cli_rounding_only(model_id):
    p = defaults()[model_id]
    ref = checks.closed_form_r0(model_id, p)
    checks.check_r0_12_digits(model_id, p, float(f"{ref:.12g}"))
    for wrong in (ref * (1.0 + 1e-6), ref * (1.0 + 2e-11)):
        with pytest.raises(CheckFailed):
            checks.check_r0_12_digits(model_id, p, wrong)


def test_patch2_closed_form_matches_the_full_next_generation_matrix():
    # F and V over (E1, E2, I1, I2) written out by hand; R0 = rho(F V^-1)
    p = defaults()["patch2"]
    s1, s2 = p["Pi1"] / p["mu1"], p["Pi2"] / p["mu2"]
    d1 = p["m11"] * s1 + p["m21"] * s2
    d2 = p["m12"] * s1 + p["m22"] * s2
    F = np.zeros((4, 4))
    for row, (s, home, away) in enumerate(((s1, "m11", "m12"), (s2, "m21", "m22"))):
        F[row, 2] = (p["beta1"] * p[home] * s * p["p11"] / d1
                     + p["beta2"] * p[away] * s * p["p12"] / d2)
        F[row, 3] = (p["beta1"] * p[home] * s * p["p21"] / d1
                     + p["beta2"] * p[away] * s * p["p22"] / d2)
    V = np.diag([p["nu1"] + p["mu1"], p["nu2"] + p["mu2"],
                 p["gamma1"] + p["delta1"] + p["mu1"], p["gamma2"] + p["delta2"] + p["mu2"]])
    V[2, 0], V[3, 1] = -p["nu1"], -p["nu2"]
    rho = max(abs(np.linalg.eigvals(F @ np.linalg.inv(V))))
    assert abs(checks.closed_form_r0("patch2", p) - rho) <= 1e-12 * rho


def test_vectorborne_closed_form_matches_the_full_next_generation_matrix():
    p = defaults()["vectorborne"]
    F = np.array([[0.0, p["beta_hv"] * p["Pi"] / p["mu_h"]],
                  [p["beta_vh"] * p["Lam"] / p["mu_v"], 0.0]])
    V = np.diag([p["alpha"] + p["mu_h"] + p["sigma"] - p["delta"], p["mu_v"]])
    rho = max(abs(np.linalg.eigvals(F @ np.linalg.inv(V))))
    assert abs(checks.closed_form_r0("vectorborne", p) - rho) <= 1e-12 * rho


def test_threshold_check_rejects_an_r0_on_the_wrong_side_of_one():
    F = [[0.3, 0.1], [0.0, 0.0]]
    V = [[0.1, 0.0], [-0.05, 0.2]]
    r0 = max(abs(np.linalg.eigvals(np.array(F) @ np.linalg.inv(np.array(V)))))
    checks.check_threshold("x", F, V, r0)
    with pytest.raises(CheckFailed):
        checks.check_threshold("x", F, V, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_threshold("x", [[0.05, 0.0], [0.0, 0.0]], V, 2.0)


def test_final_size_root_solves_the_relation():
    for r0 in (0.5, 1.0, 1.5, 3.0, 8.0):
        s = checks.final_size_root(r0, 999.0, 1000.0)
        assert 0.0 < s < 999.0
        assert abs(math.log(999.0 / s) - r0 * (1000.0 - s) / 1000.0) <= 1e-9


def _sweep_point(r0, **row):
    """check_sweep_point on a sirs row at the ode_sweep settings; `row`
    replaces the right r0_alg, r0_hat or error."""
    row = {"r0_alg": r0, "r0_hat": r0, "error": None, **row}
    params = {"beta": 0.1 * r0, "gamma": 0.1, "delta": 0.0}
    checks.check_sweep_point("sirs", params, row["r0_alg"], row["r0_hat"],
                             999999.0, 1e6, rel=0.01, dt=0.05, conv_tol=1e-6,
                             error=row["error"])


def test_sweep_point_check_rejects_each_wrong_field():
    _sweep_point(2.5)
    _sweep_point(2.5, r0_hat=2.5 * 1.003)
    wrong = (
        dict(r0_alg=2.5 * (1 + 1e-6)),
        dict(r0_hat=2.5 * 1.02),
        dict(r0_hat=None),
        dict(error="EstimateError: not converged"),
    )
    for change in wrong:
        with pytest.raises(CheckFailed):
            _sweep_point(2.5, **change)


def test_final_size_check_fails_where_the_r0_check_passes():
    # at R0 = 2.5 an estimate 0.9 % high is within the 1 % R0 tolerance, but
    # its final size is 0.29 % of the population below the root, beyond
    # 0.04*dt = 0.2 %
    with pytest.raises(CheckFailed, match="final size"):
        _sweep_point(2.5, r0_hat=2.5 * 1.009)
    # at R0 = 8 the same final-size tolerance admits a 2 % R0 error, which
    # the R0 check rejects
    with pytest.raises(CheckFailed, match="not within"):
        _sweep_point(8.0, r0_hat=8.0 * 1.02)


def test_marking_check_rejects_negative_fractional_and_unconserved():
    good = [(98000, 2000, 0), (97990, 2005, 5)]
    checks.check_markings(good, 100000)
    checks.check_markings([(5, 0, 1, 0)])
    for bad, total in (([(98000, 2001, -1)], None),
                       ([(98000, 1999.5, 0.5)], None),
                       ([(97999, 2000, 0)], 100000)):
        with pytest.raises(CheckFailed):
            checks.check_markings(bad, total)


def test_rk4_curve_grows_at_the_linearised_rate():
    beta, gamma = 0.3, 0.1
    times, values, _ = checks.sirs_rk4(beta, gamma, 0.0, (1e12, 1.0, 0.0), 5.0)
    for t, v in zip(times, values):
        assert abs(v - math.exp((beta - gamma) * t)) <= 1e-9 * v


def test_mean_check_rejects_a_shifted_mean():
    rng = np.random.default_rng(5)
    times = [0.0, 1.0, 2.0, 3.0]
    curve = [2000.0, 2400.0, 2900.0, 3500.0]
    samples = {t: list(c + rng.normal(0.0, 50.0, 40)) for t, c in zip(times, curve)}
    checks.check_mean_tracks(times, curve, samples)
    se = 50.0 / math.sqrt(40)
    shifted = {t: [x + 10 * se + 0.003 * c for x in xs]
               for (t, xs), c in zip(samples.items(), curve)}
    with pytest.raises(CheckFailed):
        checks.check_mean_tracks(times, curve, shifted)
    with pytest.raises(CheckFailed):
        checks.check_mean_tracks(times, curve, {1.0: [2400.0]})


class _Traj:
    def __init__(self, markings):
        self.times = tuple(float(t) for t in range(len(markings)))
        self.markings = tuple(markings)
        self.rng_seed = 7


def test_replay_check_rejects_one_changed_marking():
    a = _Traj([(98000, 2000, 0), (97990, 2005, 5)])
    checks.check_replay(a, _Traj([(98000, 2000, 0), (97990, 2005, 5)]))
    with pytest.raises(CheckFailed):
        checks.check_replay(a, _Traj([(98000, 2000, 0), (97990, 2004, 6)]))


def test_benchmark_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "r0_zoo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
