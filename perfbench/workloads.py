"""Workload definitions: seeded inputs, the fixed op list of one pass, and the
correctness check of every op.

An op is a call into the public robustmd API (or ``robustmd.cli.main``) that a
user would make. ``run`` is the timed call. ``observe`` turns its raw return
into a plain, comparable result outside the timed region (reading report
files for CLI ops). ``check`` compares one observed result against the paper's
headline numbers or an independent HiGHS solve; it also runs outside the
timed region. Functions are looked up on their modules at call time, so the
traced run sees every call through its span wrappers.

Why these workloads:

- paper: the four CLI commands on the bundled examples at the default
  spacing 1/400. Few-row LPs with ~600 columns; the only workload where the
  cli, mechanisms and measures layers show.
- coupling: a Wasserstein ball around the continuous mean set, scored
  against the Bergemann-Schlag regret, at spacings 1/40, 1/60, 1/80. Wide
  4-row coupling tableaux: almost all time is simplex pivots.
- transport: seeded random priors against one- and two-moment sets. The
  same optim layer on LPs with one row per source atom (coupling) and with
  one row per grid point (TV projection).
"""

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import robustmd.ambiguity as amb_mod
import robustmd.cli as cli_mod
from robustmd.ambiguity import LinearSet, MomentRow, WassersteinBall
from robustmd.measures import DiscretePrior, Grid, ValueFunction

import oracle

DEFAULT_SPACING = 1.0 / 400.0

# Headline numbers pinned by tests/test_acceptance.py and tests/test_cli.py.
MEDIAN_GUARANTEE = 0.2
BS_GUARANTEE = 0.5 * math.log(0.5)  # -0.34657359: theta_bar ln theta_bar at 0.5
PERSUASION_GUARANTEE = 0.657142857
PERSUASION_GAP = 0.4
ROBUSTIFY_KAPPA = 0.446237151
ROBUSTIFY_GUARANTEE = 0.360070872
FIG4_KINKS = {"0": 0.5, "0.001": 0.468712, "0.003": 0.446237, "0.006": 0.428882}

EXIT_OK, EXIT_NON_ROBUST = 0, 3

_GRID = {"lo": 0.0, "hi": 1.5, "spacing": DEFAULT_SPACING}
MEDIAN_SPEC = {
    "grid": dict(_GRID, extra_points=[0.4]),
    "value_function": {"kind": "posted_price", "price": 0.4, "objective": "revenue"},
    "ambiguity": {"kind": "quantile", "pairs": [[0.4, 0.5]]},
}
BS_SPEC = {
    "grid": dict(_GRID, extra_points=[]),
    "value_function": {"kind": "bergemann_schlag", "theta_bar": 0.5, "objective": "neg_regret"},
    "ambiguity": {"kind": "support", "a": 0.5, "b": 1.0},
}
PERSUASION_SPEC = {
    "grid": dict(_GRID, extra_points=[0.4]),
    "value_function": {"kind": "persuasion", "alpha": 0.3},
    "ambiguity": {
        "kind": "linear",
        "continuous_moments": False,
        "rows": [
            {"g": {"kind": "identity"}, "lo": 0.4, "hi": 0.4},
            {"g": {"kind": "indicator_outside", "a": 0.3, "b": 0.6}, "lo": 0.0, "hi": 0.0},
        ],
    },
}
BALL_RADIUS = 0.003
BS_BALL_SPEC = dict(
    BS_SPEC, ambiguity={"kind": "wasserstein_ball", "base": BS_SPEC["ambiguity"], "radius": BALL_RADIUS}
)

COUPLING_MEAN, COUPLING_RADIUS = 0.6, 0.02
COUPLING_SPEC = {
    "grid": dict(_GRID, extra_points=[]),
    "value_function": {"kind": "bergemann_schlag", "theta_bar": 0.5, "objective": "neg_regret"},
    "ambiguity": {
        "kind": "wasserstein_ball",
        "radius": COUPLING_RADIUS,
        "base": {
            "kind": "linear",
            "continuous_moments": True,
            "rows": [{"g": {"kind": "identity"}, "lo": COUPLING_MEAN, "hi": COUPLING_MEAN}],
        },
    },
}

TRANSPORT_MEAN, TRANSPORT_SECOND = 0.6, 0.45
TRANSPORT_BALL_RADIUS = 0.15
TRANSPORT_ATOMS = range(6, 13)  # every pass holds equally many priors of each atom count

# Full and smoke sizes. Smoke sizes run every op kind and check in seconds.
SIZES = {
    "paper": {"full": {"spacing": DEFAULT_SPACING}, "smoke": {"spacing": 1.0 / 100.0}},
    "coupling": {
        "full": {"spacings": [1.0 / 40.0, 1.0 / 60.0, 1.0 / 80.0]},
        "smoke": {"spacings": [1.0 / 10.0, 1.0 / 20.0]},
    },
    "transport": {
        "full": {"spacing": 1.0 / 50.0, "priors": 21},
        "smoke": {"spacing": 1.0 / 20.0, "priors": 2},
    },
}

# Tail percentile per workload: the highest of 50/75/90/95/99 with at least
# ten samples beyond it in a run at the seed commit. It stays fixed so later
# changes compare the same statistic; coupling has too few ops per run and
# reports its slowest op.
TAIL_PERCENTILE = {"paper": 95.0, "coupling": 100.0, "transport": 90.0}


@dataclass
class Op:
    """One user call. ``observe`` returns a value that compares with ``==``, so
    repeats of the op are checked for byte-identical results."""

    id: str
    run: Callable[[], object]
    observe: Callable[[object], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    ops: list  # one pass, in the seed's order
    warmup: Op
    sizes: dict

    @property
    def tail_percentile(self) -> float:
        return TAIL_PERCENTILE[self.name]


# ---------------------------------------------------------------------------
# CLI ops


def _cli_op(op_id: str, argv: list, work: Path, check) -> Op:
    out_dir = work / "out" / op_id.replace(":", "_").replace("/", "_")

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_mod.main(argv + ["--out", str(out_dir)])
        return code, buf.getvalue()

    def observe(raw):
        code, text = raw
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            shutil.rmtree(out_dir)
        return {"code": code, "stdout": text, "files": files}

    return Op(op_id, run, observe, check)


def _report(res: dict, name: str) -> dict:
    return json.loads(res["files"][name])


def _expect_code(res: dict, code: int) -> list:
    if res["code"] != code:
        return [f"exit code {res['code']}, expected {code}: {res['stdout'].strip()[-200:]}"]
    return []


def _near(label: str, got, want: float, tol: float) -> list:
    if got is None or not abs(got - want) <= tol:
        return [f"{label} = {got}, expected {want} +- {tol:g}"]
    return []


def _guarantee_check(want, tol: float):
    """Check a guarantee report; want is a headline number or a zero-argument oracle."""

    def check(res):
        errs = _expect_code(res, EXIT_OK)
        if errs:
            return errs
        rep = _report(res, "guarantee_report.json")
        errs += _near("guarantee value", rep["value"], want() if callable(want) else want, tol)
        if rep["status"] != "optimal":
            errs.append(f"status {rep['status']}")
        mass = sum(w for _, w in rep["worst_prior"])
        errs += _near("worst prior mass", mass, 1.0, 1e-9)
        return errs

    return check


def _check_robust_check(code: int, guarantee: float | None, tol: float, extra=None):
    def check(res):
        errs = _expect_code(res, code)
        if errs:
            return errs
        rep = _report(res, "robustness_report.json")
        if guarantee is not None:
            errs += _near("check-robust guarantee", rep["guarantee"], guarantee, tol)
        if extra is not None:
            errs += extra(rep)
        return errs

    return check


def _envelope_oracle_check(reference):
    """Verify a robustness report: guarantee and every envelope worst case by
    an independent LP, the window schedule, and the verdict from those values.

    reference() gives (grid, payoff vector, LP solver for a payoff vector)."""

    def check(rep):
        grid, values, solve = reference()
        errs = []
        g = solve(values)
        errs += _near("guarantee (oracle)", rep["guarantee"], g, 1e-6)
        s = float(np.max(np.diff(grid.points)))
        hs = [4.0 * s / 2**k for k in range(5)]
        if [h for h, _ in rep["envelope_values"]] != rep["h_schedule"]:
            errs.append("envelope windows differ from the schedule")
        if not np.allclose(rep["h_schedule"], hs, rtol=1e-12, atol=0.0):
            errs.append(f"window schedule {rep['h_schedule']} != {hs}")
        envs = []
        for h, value in rep["envelope_values"]:
            env = solve(oracle.lsc_envelope(grid.points, values, h))
            envs.append(env)
            errs += _near(f"envelope worst case at h={h:.3g}", value, env, 1e-6)
        small = [max(g - e, 0.0) for e in envs[-2:]]
        thr = rep["threshold"]
        if all(abs(x - thr) > 1e-6 for x in small):  # verdict decidable from oracle values
            want = "non_robust" if min(small) > thr else "robust" if max(small) <= thr else "inconclusive"
            if rep["verdict"] != want:
                errs.append(f"verdict {rep['verdict']}, oracle gaps {small} vs threshold {thr} give {want}")
        return errs

    return check


def _oracle_value(reference):
    def value():
        _, values, solve = reference()
        return solve(values)

    return value


def _write_spec(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _spec_grid(spec: dict, spacing: float) -> Grid:
    return cli_mod.build_grid(cli_mod.parse_spec(spec), spacing)


def paper(seed: int, work: Path, smoke: bool) -> Workload:
    spacing = SIZES["paper"]["smoke" if smoke else "full"]["spacing"]
    common = ["--grid-spacing", repr(spacing)]
    grid_tol = 2.0 * spacing  # grid-resolution tolerance used by the acceptance tests
    specs = {
        "median": _write_spec(work, "median", MEDIAN_SPEC),
        "bs": _write_spec(work, "bs", BS_SPEC),
        "persuasion": _write_spec(work, "persuasion", PERSUASION_SPEC),
        "bs_ball": _write_spec(work, "bs_ball", BS_BALL_SPEC),
    }

    @functools.cache
    def ball_reference():
        grid = _spec_grid(BS_BALL_SPEC, spacing)
        dist = oracle.interval_distance(grid.points, 0.5, 1.0)
        return grid, oracle.bs_neg_regret(grid.points, 0.5), lambda v: oracle.budget_lp(v, dist, BALL_RADIUS)

    def median_witness(rep):
        pays = rep["witness_payoffs"] or []
        return [] if pays and max(pays) <= 1e-9 else [f"median witness payoffs {pays}"]

    def persuasion_gap(rep):
        return _near("persuasion gap", rep["gap"], PERSUASION_GAP, max(1e-3, grid_tol))

    def robustify_check(res):
        errs = _expect_code(res, EXIT_OK)
        if errs:
            return errs
        rep = _report(res, "robustify_report.json")
        errs += _near("kappa", rep["kappa"], ROBUSTIFY_KAPPA, 1e-9)
        errs += _near("regret guarantee", rep["regret_guarantee"], ROBUSTIFY_GUARANTEE, 1e-9)
        for key, val in rep["saddle"].items():
            if not -1e-7 <= val <= grid_tol:
                errs.append(f"saddle {key} = {val} outside [-1e-7, {grid_tol}]")
        return errs

    def fig1_check(res):
        errs = _expect_code(res, EXIT_OK)
        if errs:
            return errs
        theta, value = oracle.read_csv(res["files"]["fig1_value.csv"])
        _, cdf = oracle.read_csv(res["files"]["fig1_worst_cdf.csv"])
        want_v = np.where(theta >= 0.4 - 1e-12, 0.4, 0.0)
        want_c = np.where(theta >= 0.4 - 1e-12, 1.0, 0.5)
        if not (np.allclose(value, want_v, atol=1e-9) and np.allclose(cdf, want_c, atol=1e-9)):
            errs.append("fig1 series differ from the median-pin price and its worst CDF")
        return errs

    def fig4_check(res):
        errs = _expect_code(res, EXIT_OK)
        if errs:
            return errs
        series = _report(res, "fig4_manifest.json")["series"]
        for r, kink in FIG4_KINKS.items():
            errs += _near(f"fig4 kink r={r}", series.get(r, {}).get("kink"), kink, 1e-4)
        return errs

    def cli(op_id, argv, check):
        return _cli_op(op_id, argv + common, work, check)

    ops = [
        cli("guarantee:median", ["guarantee", "--spec", specs["median"]],
            _guarantee_check(MEDIAN_GUARANTEE, 1e-6)),
        cli("check-robust:median", ["check-robust", "--spec", specs["median"]],
            _check_robust_check(EXIT_NON_ROBUST, MEDIAN_GUARANTEE, 1e-6, median_witness)),
        cli("guarantee:bs", ["guarantee", "--spec", specs["bs"]],
            _guarantee_check(BS_GUARANTEE, 1e-8)),
        cli("check-robust:bs", ["check-robust", "--spec", specs["bs"]],
            _check_robust_check(EXIT_NON_ROBUST, BS_GUARANTEE, 1e-8)),
        cli("guarantee:persuasion", ["guarantee", "--spec", specs["persuasion"]],
            _guarantee_check(PERSUASION_GUARANTEE, 1e-6)),
        cli("check-robust:persuasion", ["check-robust", "--spec", specs["persuasion"]],
            _check_robust_check(EXIT_NON_ROBUST, PERSUASION_GUARANTEE, 1e-6, persuasion_gap)),
        cli("guarantee:bs_ball", ["guarantee", "--spec", specs["bs_ball"]],
            _guarantee_check(_oracle_value(ball_reference), 1e-6)),
        cli("check-robust:bs_ball", ["check-robust", "--spec", specs["bs_ball"]],
            _check_robust_check(EXIT_OK, None, 1e-6, _envelope_oracle_check(ball_reference))),
        cli("robustify", ["robustify", "--theta-bar", "0.5", "--r", repr(BALL_RADIUS)], robustify_check),
        cli("figure:fig1", ["figure", "--name", "fig1"], fig1_check),
        cli("figure:fig4", ["figure", "--name", "fig4"], fig4_check),
    ]
    warmup = cli("warmup", ["guarantee", "--spec", specs["median"]], _guarantee_check(MEDIAN_GUARANTEE, 1e-6))
    ops = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]
    grid_n = cli_mod.build_grid(cli_mod.parse_spec(MEDIAN_SPEC), spacing).n
    return Workload("paper", ops, warmup, {"grid_n": grid_n, "ops_per_pass": len(ops)})


def coupling(seed: int, work: Path, smoke: bool) -> Workload:
    spacings = SIZES["coupling"]["smoke" if smoke else "full"]["spacings"]
    spec = _write_spec(work, "coupling", COUPLING_SPEC)
    ops, sizes = [], {"grid_n": [], "coupling_columns": []}
    for spacing in spacings:
        n = cli_mod.build_grid(cli_mod.parse_spec(COUPLING_SPEC), spacing).n
        sizes["grid_n"].append(n)
        sizes["coupling_columns"].append(n * n)
        reference = functools.cache(functools.partial(_coupling_reference, spacing))
        argv = ["--spec", spec, "--grid-spacing", repr(spacing)]
        tag = f"1/{round(1.0 / spacing)}"
        ops.append(_cli_op(f"guarantee:{tag}", ["guarantee"] + argv, work,
                           _guarantee_check(_oracle_value(reference), 1e-6)))
        ops.append(_cli_op(f"check-robust:{tag}", ["check-robust"] + argv, work,
                           _check_robust_check(EXIT_OK, None, 1e-6, _envelope_oracle_check(reference))))
    warmup = ops[0]
    ops = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]
    sizes["ops_per_pass"] = len(ops)
    return Workload("coupling", ops, warmup, sizes)


def _coupling_reference(spacing: float):
    grid = _spec_grid(COUPLING_SPEC, spacing)

    def solve(values):
        return oracle.mean_ball_coupling_lp(values, grid.points, COUPLING_MEAN, COUPLING_RADIUS)

    return grid, oracle.bs_neg_regret(grid.points, 0.5), solve


# ---------------------------------------------------------------------------
# library ops on seeded priors


def transport_priors(grid: Grid, rng: np.random.Generator, count: int) -> list:
    """Priors with 6..12 atoms in turn; atom k sits uniformly at random in the
    k-th of equal index strata and weights are uniform on [0.5, 1.5].

    Cycling the atom count and stratifying positions keeps the work per pass
    nearly the same across seeds while every prior stays random.
    """
    atoms = list(TRANSPORT_ATOMS)
    out = []
    for k in range(count):
        na = atoms[k % len(atoms)]
        edges = np.linspace(0, grid.n, na + 1).astype(int)
        idx = [int(rng.integers(edges[j], edges[j + 1])) for j in range(na)]
        w = np.zeros(grid.n)
        w[idx] = rng.uniform(0.5, 1.5, na)
        out.append(DiscretePrior(grid, w / w.sum()))
    return out


def transport(seed: int, work: Path, smoke: bool) -> Workload:
    size = SIZES["transport"]["smoke" if smoke else "full"]
    grid = Grid.regular(0.0, 1.5, size["spacing"])
    pts = grid.points
    mean_row = MomentRow(ValueFunction(grid, pts.copy()), TRANSPORT_MEAN, TRANSPORT_MEAN)
    second_row = MomentRow(ValueFunction(grid, pts**2), TRANSPORT_SECOND, TRANSPORT_SECOND)
    one = LinearSet((mean_row,), continuous_moments=True)
    two = LinearSet((mean_row, second_row), continuous_moments=True)
    ball = WassersteinBall(one, TRANSPORT_BALL_RADIUS)
    moments = {"one": (np.array([pts]), np.array([TRANSPORT_MEAN])),
               "two": (np.array([pts, pts**2]), np.array([TRANSPORT_MEAN, TRANSPORT_SECOND]))}
    rng = np.random.default_rng(seed)
    priors = transport_priors(grid, rng, size["priors"])

    def projection_result(p):
        return (tuple(p.prior.weights.tolist()), p.alpha, p.margin, p.residual)

    ops = []
    for k, pi in enumerate(priors):
        for name, aset in (("one", one), ("two", two)):
            G, y = moments[name]
            ops.append(Op(
                f"distance_to:{name}:{k}",
                lambda a=aset, p=pi: amb_mod.distance_to(a, p),
                float,
                lambda d, G=G, y=y, p=pi: _near(
                    "distance (oracle)", d, oracle.moment_distance_lp(p.weights, pts, G, y), 1e-7),
            ))
            ops.append(Op(
                f"rich_project_moment:{name}:{k}",
                lambda a=aset, p=pi: amb_mod.rich_project_moment(a, p),
                projection_result,
                lambda r, G=G, y=y, p=pi: oracle.check_projection(r, p.weights, G, y),
            ))
        ops.append(Op(
            f"contains:ball:{k}",
            lambda p=pi: amb_mod.contains(ball, p),
            bool,
            lambda inside, p=pi: _contains_check(inside, p, pts, moments["one"]),
        ))
    warmup = ops[0]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return Workload("transport", ops, warmup,
                    {"grid_n": grid.n, "priors": len(priors), "ops_per_pass": len(ops)})


def _contains_check(inside, pi, pts, moment) -> list:
    d = oracle.moment_distance_lp(pi.weights, pts, *moment)
    if abs(d - TRANSPORT_BALL_RADIUS) <= 1e-6:  # on the boundary: either answer is within tolerance
        return []
    if inside != (d <= TRANSPORT_BALL_RADIUS):
        return [f"contains = {inside}, oracle distance {d} vs radius {TRANSPORT_BALL_RADIUS}"]
    return []


BY_NAME = {"paper": paper, "coupling": coupling, "transport": transport}
