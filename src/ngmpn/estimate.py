"""Attack-rate estimation of R0 from trajectories, and sweep verification.

The estimator inverts the final-size relation. A seeded SIR-type run with
no initially recovered mass satisfies ln(S0/S_inf) = r0*(n - S_inf)/n
exactly, so

    r0_hat = ln(S0/S_inf) * n / (n - S_inf).

When S0 = n this is the textbook ln(S0/S_inf)/AR form; keeping the seed in
the denominator lets the estimator recover subcritical and critical r0 as
well (the AR form saturates near 1 as AR -> 0). Exactness needs SIR-type
dynamics without demography, so verification sweeps switch waning and
birth/death off via parameter overrides (recorded in the sweep config).

RRMSE over a grid is sqrt(mean(((r0_hat - r0_alg)/r0_alg)^2)).
"""
from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .errors import NgmpnError
from .ngm import NgmResult, ngm_r0
from .petri import PetriModel
from .sim import MAX_STEPS, Trajectory, _marking, check_ranges, run_vapn


class EstimateError(NgmpnError):
    pass


class EstimateResult(NamedTuple):
    r0_hat: float
    attack_rate: float
    s0: float
    s_inf: float
    n: float
    flags: tuple = ()


def _names(places) -> tuple:
    """One place name or several, as a tuple."""
    return (places,) if isinstance(places, str) else tuple(places)


def _susceptible_indices(traj: Trajectory, susceptible_place):
    idx = []
    for nm in _names(susceptible_place):
        if nm not in traj.places:
            raise EstimateError(f"no place named {nm!r} in trajectory")
        idx.append(traj.places.index(nm))
    return idx


def attack_rate_r0(traj: Trajectory, susceptible_place, n: float,
                   conv_tol: float = 1e-6) -> EstimateResult:
    """R0 point estimate from the attack rate of a converged trajectory.

    susceptible_place names one place or several (summed). The susceptible
    series must have plateaued: max spread over the last 10% of samples at
    most conv_tol*n, otherwise the run is too short to define S_inf.
    """
    if n <= 0:
        raise EstimateError("population size n must be positive")
    if len(traj.times) < 2:
        raise EstimateError("trajectory has fewer than 2 samples")
    idx = _susceptible_indices(traj, susceptible_place)
    series = [sum(mk[j] for j in idx) for mk in traj.markings]

    tail = series[-max(2, len(series) // 10):]
    if max(tail) - min(tail) > conv_tol * n:
        raise EstimateError(
            "susceptible series not converged: spread over trailing samples "
            f"{max(tail) - min(tail):.6g} exceeds {conv_tol:g}*n")

    s0 = series[0]
    s_inf = series[-1]
    if s0 > n * (1 + 1e-9):
        raise EstimateError("S0 exceeds the stated population size")
    flags = ()
    if s_inf < 0:
        raise EstimateError("negative susceptible count")
    if s_inf > s0:
        # stochastic jitter can leave the tail a hair above the start
        s_inf = s0
        flags += ("tail_above_start",)
    ar = (s0 - s_inf) / n
    if ar <= 0.0:
        # no outbreak: limit of the estimator as s_inf -> s0 is 1 when the
        # whole population started susceptible, 0 otherwise
        limit = 1.0 if s0 >= n * (1 - 1e-12) else 0.0
        return EstimateResult(limit, 0.0, s0, s_inf, n,
                              flags=flags + ("no_outbreak",))
    if s_inf == 0.0:
        return EstimateResult(math.inf, ar, s0, s_inf, n,
                              flags=flags + ("susceptibles_exhausted",))
    r0_hat = math.log(s0 / s_inf) * n / (n - s_inf)
    return EstimateResult(r0_hat, ar, s0, s_inf, n, flags=flags)


def rrmse(rows) -> float:
    """Root mean squared relative error of r0_hat against r0_alg.

    rows: (r0_alg, r0_hat) pairs, or objects with those attributes.
    """
    sq = []
    for row in rows:
        if hasattr(row, "r0_alg"):
            alg, hat = row.r0_alg, row.r0_hat
        else:
            alg, hat = row
        if alg is None or hat is None:
            raise EstimateError("row without both estimates")
        if alg <= 0:
            raise EstimateError(f"nonpositive algebraic R0: {alg}")
        rel = (hat - alg) / alg
        sq.append(rel * rel)
    if not sq:
        raise EstimateError("no rows")
    return math.sqrt(sum(sq) / len(sq))


# the shortest chunk of a converged run; a point whose slowest transfer time
# scale, 1/min Re eig(V) at the DFE, is longer runs chunks of that length
CHUNK_T = 400.0
# the most points one sweep runs; at about 7 ms per point (sirs, one x86-64
# core) that is about two hours, and its points, merged parameters and rows,
# about 0.5 KB a point, hold about half a GB
MAX_GRID_POINTS = 1_000_000


class SweepConfig(NamedTuple):
    dt: float = 0.05
    conv_tol: float = 1e-6          # plateau when |dS per chunk| <= tol*n
    max_t: float = 3e5
    susceptible: tuple | str = "S"
    # fixed params, e.g. delta=0; the default is read-only, since every
    # config made without overrides shares it
    overrides: dict = MappingProxyType({})
    marking0: tuple | None = None   # default: the model's initial marking


class SweepRow(NamedTuple):
    params: dict
    r0_alg: float | None = None
    r0_hat: float | None = None
    rel_err: float | None = None
    error: str | None = None


class SweepReport(NamedTuple):
    rows: tuple
    rrmse: float
    max_rel_err: float
    failures: int
    grid_names: tuple
    config: SweepConfig

    def summary(self) -> dict:
        """Aggregates as JSON-ready values; an error aggregate that is not
        finite (no successful point, or an infinite estimate) is None."""
        def finite(v):
            return v if math.isfinite(v) else None
        return {"rrmse": finite(self.rrmse),
                "max_rel_err": finite(self.max_rel_err),
                "n_points": len(self.rows), "failures": self.failures}

    def write_csv(self, fh):
        fh.write(",".join(self.grid_names) + ",r0_alg,r0_hat,rel_err\n")
        for row in self.rows:
            cells = [f"{row.params[k]:.12g}" for k in self.grid_names]
            for v in (row.r0_alg, row.r0_hat, row.rel_err):
                cells.append("" if v is None else f"{v:.12g}")
            fh.write(",".join(cells) + "\n")


def _start(m: PetriModel, config: SweepConfig) -> tuple:
    """The starting marking of every sweep run; its sum is the population."""
    return tuple(config.marking0) if config.marking0 is not None \
        else m.initial_marking()


def converged_run(m: PetriModel, res: NgmResult, config: SweepConfig) -> Trajectory:
    """Chunked VAPN run until the susceptible total flattens.

    res is the NgmResult of ngm_r0 for this model at this point: the run
    uses the parameter values it solved at (res.dfe.params), and each chunk
    lasts max(CHUNK_T, 1/min Re eig(res.V)), V being the transfer matrix at
    the DFE: a chunk shorter than the slowest transfer time scale can pass
    the plateau test while the outbreak is still igniting. A point whose
    transfer flows do not decay (finding A5 violated) raises EstimateError.
    Returns a trajectory whose first sample is the true start (so S0 is
    preserved) and whose remaining samples are the final chunk, dense enough
    for the estimator's plateau precondition; its clipping_events counts the
    clips of every chunk.
    """
    rate = min(ev.real for ev in linalg.eigenvalues(res.V))
    if not (rate > 0.0 and 1.0 / rate < math.inf):
        raise EstimateError(f"the transfer flows do not decay at the DFE on a finite "
                            f"time scale (finding A5): min Re eig(V) = {rate:.6g}")
    chunk = max(CHUNK_T, 1.0 / rate)
    params = dict(zip(m.params, res.dfe.params))
    marking = _start(m, config)
    n = float(sum(marking))
    idx = [m.place_index(p) for p in _names(config.susceptible)]
    inf_idx = [m.place_index(p) for p in m.infected_places()]

    # over a tiny dt the step count can overflow to inf; clamped, a chunk of
    # more than MAX_STEPS steps reaches run_vapn, which refuses it as SimError
    steps_per_chunk = max(1, int(round(min(chunk / config.dt, MAX_STEPS))))
    sample_every = max(1, steps_per_chunk // 50)
    start = marking
    t = 0.0
    clips = 0
    last = None
    while t < config.max_t * (1 - 1e-12):
        last = run_vapn(m, t_end=t + chunk, dt=config.dt,
                        params=params, marking0=marking, t0=t,
                        sample_every=sample_every)
        clips += last.clipping_events
        new = last.final()
        ds = abs(sum(new[j] for j in idx) - sum(marking[j] for j in idx))
        # a growing infected pool means the outbreak is still igniting, even
        # when S has barely moved yet (small seed in a large population)
        di = sum(new[j] for j in inf_idx) - sum(marking[j] for j in inf_idx)
        marking = new
        t = last.times[-1]
        if ds <= config.conv_tol * n and di <= 0.0:
            break
    if last is None:
        raise EstimateError("max_t too small for a single chunk")
    if last.times[0] == 0.0:
        return last
    return last._replace(times=(0.0,) + last.times, markings=(start,) + last.markings,
                         clipping_events=clips)


def _check_inputs(m: PetriModel, config: SweepConfig, points) -> list:
    """Raise EstimateError for a config or grid point no point could run;
    return each point's parameters merged over the overrides and the model's."""
    check_ranges(EstimateError, dt=config.dt, max_t=config.max_t,
                 conv_tol=config.conv_tol)
    for name in _names(config.susceptible):
        if not m.is_place(name):
            raise EstimateError(f"susceptible place {name!r} is not in model {m.name}")
    if not sum(_marking(m, _start(m, config), EstimateError)) > 0:
        raise EstimateError("marking0 sums to zero: there is no population")
    return [m.merged_params({**config.overrides, **point}, EstimateError)
            for point in points]


def sweep(m: PetriModel, grid: dict, config: SweepConfig | None = None) -> SweepReport:
    """Estimator-vs-algebra comparison over a cartesian parameter grid.

    grid maps parameter names to value lists; rows come out in
    grid-lexicographic order (first name slowest). The grid and the config,
    its starting marking included, are checked before any point runs and
    raise EstimateError, a grid of more than MAX_GRID_POINTS points before
    any point is built; a package error at a point is recorded in its row
    and excluded from the aggregate errors, and any other exception
    propagates. A point whose transfer flows do not decay at the DFE
    (converged_run) is such an error, and so is a point whose run clipped a
    place at zero, since a clipped step creates tokens. Each point's
    parameters, merged once over the overrides and the model's own, go
    through ngm_r0 once; its result gives the row's r0_alg and is handed to
    converged_run. A row keeps the raw grid point as its params.
    """
    if not grid:
        raise EstimateError("empty parameter grid")
    config = config or SweepConfig()
    names = tuple(grid.keys())
    if math.prod(map(len, grid.values())) > MAX_GRID_POINTS:
        raise EstimateError(f"the grid has more than {MAX_GRID_POINTS} points")
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(grid[k] for k in names))]
    merged = _check_inputs(m, config, points)
    n = float(sum(_start(m, config)))

    rows = []
    for point, params in zip(points, merged):
        try:
            res = ngm_r0(m, params=params)
            traj = converged_run(m, res, config)
            if traj.clipping_events:
                raise EstimateError(
                    f"clipping at zero created tokens in {traj.clipping_events} "
                    f"place-steps of the run; use a smaller dt (--dt)")
            est = attack_rate_r0(traj, config.susceptible, n,
                                 conv_tol=config.conv_tol)
            if res.r0 <= 0:
                raise EstimateError(f"nonpositive algebraic R0: {res.r0}")
            rel = abs(est.r0_hat - res.r0) / res.r0
            rows.append(SweepRow(point, res.r0, est.r0_hat, rel))
        except NgmpnError as exc:  # recorded, not fatal to the sweep
            rows.append(SweepRow(point, error=f"{type(exc).__name__}: {exc}"))

    ok = [row for row in rows if row.error is None]
    return SweepReport(tuple(rows), rrmse(ok) if ok else math.nan,
                       max((row.rel_err for row in ok), default=math.nan),
                       len(rows) - len(ok), names, config)
