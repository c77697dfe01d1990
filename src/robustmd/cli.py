"""Command-line front end: JSON problem specs in, JSON reports and CSV series out.

Commands: guarantee, check-robust, robustify, figure. Exit codes partition the
outcomes: 0 solved/robust, 1 malformed spec or parameters, 2 infeasible,
3 non-robust, 4 inconclusive, 5 numerical breakdown. Output files are
rendered fully in memory before anything is written, so a failing command
leaves no partial CSV behind. ROBUSTMD_LOG in {quiet, debug} sets the level
of the robustmd logger on every main call; any other value warns and is quiet.
"""

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .ambiguity import (
    MEMBERSHIP_TOL,
    InfeasibleSetError,
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
)

# worst_case_ball is not called here (worst_case solves balls itself); it stays
# a module attribute because perfbench/tracing.py wraps it by name.
from .guarantee import worst_case, worst_case_ball  # noqa: F401
from .measures import DiscretePrior, Grid, ValueFunction
from .mechanisms import (
    E_INV,
    NEG_REGRET,
    REVENUE,
    PriceCdf,
    bs_optimal_cdf,
    cdf_value,
    median_example_bundle,
    monopoly_grid,
    persuasion_value,
    posted_price_value,
    robustify,
    verify_saddle,
)
from .optim import FEAS_TOL, PIVOT_TOL, LpNumericalError, LpStatus
from .robustness import Verdict, check_robust

EXIT_OK = 0
EXIT_BAD_SPEC = 1
EXIT_INFEASIBLE = 2
EXIT_NON_ROBUST = 3
EXIT_INCONCLUSIVE = 4
EXIT_NUMERICAL = 5

DEFAULT_SPACING = 1.0 / 400.0


class SpecError(ValueError):
    """Malformed problem spec (maps to exit code 1)."""


# ---------------------------------------------------------------------------
# problem specs: a node is a JSON object with a "kind", and each kind is one
# _Kind entry in VALUE_KINDS, MOMENT_KINDS or AMBIGUITY_KINDS. Field helpers
# accept one JSON type each; builders find library functions at call time.


def _need(d: dict, key: str, ctx: str):
    if key not in d:
        raise SpecError(f"{ctx}: missing required field {key!r}")
    return d[key]


def _obj(x, ctx: str, fields=None) -> dict:
    if not isinstance(x, dict):
        raise SpecError(f"{ctx} must be a JSON object")
    unknown = [key for key in x if fields is not None and key not in fields]
    if unknown:
        raise SpecError(f"{ctx}: unknown field {unknown[0]!r}")
    return dict(x)


def _num(x, ctx: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SpecError(f"{ctx} must be a number")
    if not math.isfinite(x):
        raise SpecError(f"{ctx} must be finite, got {x}")
    return float(x)


def _opt_num(x, ctx: str):
    return None if x is None else _num(x, ctx)


def _choice(*allowed):
    def parse(x, ctx: str):
        if not any(type(x) is type(a) and x == a for a in allowed):
            raise SpecError(f"{ctx} must be one of {allowed}, got {x!r}")
        return x
    return parse


def _list_of(coerce, length=None):
    def parse(x, ctx: str) -> list:
        if not isinstance(x, list) or length not in (None, len(x)):
            raise SpecError(f"{ctx} must be a list" + (f" of {length}" if length else ""))
        return [coerce(item, f"{ctx}[{i}]") for i, item in enumerate(x)]
    return parse


_nums = _list_of(_num)
_objective = _choice(REVENUE, NEG_REGRET)


def _row(x, ctx: str) -> dict:
    row = _obj(x, ctx, ("g", "lo", "hi"))
    return {
        "g": _parse_node(MOMENT_KINDS, _need(row, "g", ctx), "moment function"),
        "lo": _opt_num(row.get("lo"), f"{ctx}.lo"),
        "hi": _opt_num(row.get("hi"), f"{ctx}.hi"),
    }


def _same_length(a: str, b: str, increasing: bool = False):
    def check(node: dict):
        if not node[a] or len(node[a]) != len(node[b]):
            raise SpecError(f"{node['kind']} {a} and {b} must be nonempty and of equal length")
        if increasing and any(y <= x for x, y in zip(node[a], node[a][1:])):
            raise SpecError(f"{node['kind']} {a} must be strictly increasing")
    return check


def _check_ball(node: dict):
    if node["base"]["kind"] == "wasserstein_ball":
        raise SpecError("ball base must not itself be a ball")
    if not node["radius"] > 0:
        raise SpecError("ball radius must be positive")


class _Kind(NamedTuple):
    fields: dict  # field -> coerce(value, ctx); required unless in defaults
    build: Callable  # (node, grid) -> library object
    points: Callable = lambda d: []  # exact grid points, children's included
    defaults: dict = {}
    check: Callable = lambda d: None  # cross-field validation


def _parse_node(table: dict, x, ctx: str) -> dict:
    node = _obj(x, ctx)
    kind = _need(node, "kind", ctx)
    if not isinstance(kind, str) or kind not in table:
        raise SpecError(f"unknown {ctx} kind {kind!r} (expected one of {tuple(table)})")
    entry = table[kind]
    node = _obj(node, kind, ("kind", *entry.fields))
    for name, default in entry.defaults.items():
        node.setdefault(name, default)
    for name, coerce in entry.fields.items():
        node[name] = coerce(_need(node, name, kind), f"{kind}.{name}")
    entry.check(node)
    return node


def _points(table: dict, node: dict) -> list:
    return list(table[node["kind"]].points(node))


def _build(table: dict, node: dict, grid: Grid):
    return table[node["kind"]].build(node, grid)


def _price_cdf(d: dict, grid: Grid) -> ValueFunction:
    theta, qvals = np.asarray(d["theta"]), np.asarray(d["q"])
    idx = np.searchsorted(theta, grid.points, side="right") - 1
    q = np.where(idx >= 0, qvals[np.maximum(idx, 0)], 0.0)
    return cdf_value(PriceCdf(grid, q), d["objective"])


def _singleton(d: dict, grid: Grid) -> Singleton:
    w = np.zeros(grid.n)
    for x, m in zip(d["theta"], d["weights"]):
        w[grid.index_of(x)] += m
    return Singleton(DiscretePrior(grid, w))


def _linear(d: dict, grid: Grid) -> LinearSet:
    rows = []
    for row in d["rows"]:  # a null bound keeps MomentRow's infinite default
        bounds = {k: row[k] for k in ("lo", "hi") if row[k] is not None}
        rows.append(MomentRow(_build(MOMENT_KINDS, row["g"], grid), **bounds))
    return LinearSet(rows, continuous_moments=d["continuous_moments"])


# a payoff or moment function tabulated at points theta, interpolated onto the grid
_TABLE = _Kind(
    {"theta": _nums, "values": _nums},
    lambda d, g: ValueFunction(g, np.interp(g.points, d["theta"], d["values"])),
    check=_same_length("theta", "values", increasing=True),
)

VALUE_KINDS = {
    "posted_price": _Kind(
        {"price": _num, "objective": _objective},
        lambda d, g: posted_price_value(d["price"], g, d["objective"]),
        lambda d: [d["price"]], {"objective": REVENUE},
    ),
    "bergemann_schlag": _Kind(
        {"theta_bar": _num, "objective": _objective},
        lambda d, g: cdf_value(bs_optimal_cdf(d["theta_bar"], g), d["objective"]),
        lambda d: [d["theta_bar"], E_INV, 1.0], {"objective": NEG_REGRET},
    ),
    "price_cdf": _Kind(
        {"theta": _nums, "q": _nums, "objective": _objective}, _price_cdf,
        lambda d: d["theta"], {"objective": NEG_REGRET}, _same_length("theta", "q", increasing=True),
    ),
    "persuasion": _Kind(
        {"alpha": _num}, lambda d, g: persuasion_value(d["alpha"], g), lambda d: [d["alpha"]]
    ),
    "table": _TABLE,
}

MOMENT_KINDS = {
    "identity": _Kind({}, lambda d, g: ValueFunction(g, g.points.copy())),
    "power": _Kind({"exponent": _num}, lambda d, g: ValueFunction(g, g.points ** d["exponent"])),
    "indicator_leq": _Kind(
        {"x": _num},
        lambda d, g: ValueFunction(g, g.at_most(d["x"]).astype(float)),
        lambda d: [d["x"]],
    ),
    "indicator_outside": _Kind(
        {"a": _num, "b": _num},
        lambda d, g: ValueFunction(g, (~(g.at_least(d["a"]) & g.at_most(d["b"]))).astype(float)),
        lambda d: [d["a"], d["b"]],
    ),
    "table": _TABLE,
}

AMBIGUITY_KINDS = {
    "quantile": _Kind(
        {"pairs": _list_of(_list_of(_num, 2))},
        lambda d, g: QuantileSet(tuple((x, a) for x, a in d["pairs"])),
        lambda d: [x for x, _ in d["pairs"]],
    ),
    "support": _Kind(
        {"a": _num, "b": _num},
        lambda d, g: SupportInterval(d["a"], d["b"]),
        lambda d: [d["a"], d["b"]],
    ),
    "half_space": _Kind(
        {"v": lambda x, ctx: _parse_node(VALUE_KINDS, x, ctx), "level": _num},
        lambda d, g: LinearSet((MomentRow(_build(VALUE_KINDS, d["v"], g), lo=d["level"]),)),
        lambda d: _points(VALUE_KINDS, d["v"]),
    ),
    "singleton": _Kind(
        {"theta": _nums, "weights": _nums}, _singleton, lambda d: d["theta"],
        check=_same_length("theta", "weights"),
    ),
    "linear": _Kind(
        {"rows": _list_of(_row), "continuous_moments": _choice(False, True)}, _linear,
        lambda d: [p for row in d["rows"] for p in _points(MOMENT_KINDS, row["g"])],
        {"continuous_moments": False},
    ),
    "wasserstein_ball": _Kind(
        {"base": lambda x, ctx: _parse_node(AMBIGUITY_KINDS, x, ctx), "radius": _num},
        lambda d, g: WassersteinBall(_build(AMBIGUITY_KINDS, d["base"], g), d["radius"]),
        lambda d: _points(AMBIGUITY_KINDS, d["base"]), check=_check_ball,
    ),
}


def parse_spec(doc) -> dict:
    """Validate and normalize a problem-spec document (round-trip stable).

    A nonzero options.radius becomes a wasserstein_ball around the ambiguity,
    so every command sees a ball in the same form.
    """
    doc = _obj(doc, "spec", ("grid", "value_function", "ambiguity", "options"))
    grid = _obj(_need(doc, "grid", "spec"), "grid", ("lo", "hi", "spacing", "extra_points"))
    lo, hi, spacing = (_num(_need(grid, k, "grid"), f"grid.{k}") for k in ("lo", "hi", "spacing"))
    if not (0 <= lo < hi < math.inf and 0 < spacing < math.inf):
        raise SpecError("grid needs finite 0 <= lo < hi and spacing > 0")
    extra = _nums(grid.get("extra_points", []), "grid.extra_points")
    options = _obj(doc.get("options", {}), "options", ("radius",))
    radius = _opt_num(options.pop("radius", None), "options.radius")
    value, ambiguity = _need(doc, "value_function", "spec"), _need(doc, "ambiguity", "spec")
    if radius:
        ambiguity = {"kind": "wasserstein_ball", "base": ambiguity, "radius": radius}
    spec = {
        "grid": {"lo": lo, "hi": hi, "spacing": spacing, "extra_points": extra},
        "value_function": _parse_node(VALUE_KINDS, value, "value_function"),
        "ambiguity": _parse_node(AMBIGUITY_KINDS, ambiguity, "ambiguity"),
        "options": options,
    }
    base = spec["ambiguity"].get("base", spec["ambiguity"])  # moment rows live in a linear base
    if (lo == 0 or 0 in extra) and base["kind"] == "linear":  # 0 ** negative is infinite
        if any(row["g"]["kind"] == "power" and row["g"]["exponent"] < 0 for row in base["rows"]):
            raise SpecError("power.exponent must be nonnegative on a grid containing 0")
    return spec


def build_grid(spec: dict, spacing_override: float | None = None) -> Grid:
    """The spec's grid with every structural point (atoms, kinks, pins) inserted exactly."""
    g = spec["grid"]
    spacing = g["spacing"] if spacing_override is None else spacing_override
    pts = _points(VALUE_KINDS, spec["value_function"]) + _points(AMBIGUITY_KINDS, spec["ambiguity"])
    extra = g["extra_points"] + [p for p in pts if g["lo"] <= p <= g["hi"]]
    return Grid.regular(g["lo"], g["hi"], spacing, extra=extra)


def build_value(spec: dict, grid: Grid) -> ValueFunction:
    return _build(VALUE_KINDS, spec["value_function"], grid)


def build_ambiguity(spec: dict, grid: Grid):
    return _build(AMBIGUITY_KINDS, spec["ambiguity"], grid)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def render_csv(columns: dict) -> str:
    names = list(columns)
    cols = [columns[n] for n in names]
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(_fmt(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _write_outputs(out_dir: str | None, files: dict):
    """Write fully rendered files; nothing touches disk before this point."""
    if out_dir is None:
        return
    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (d / name).write_text(text)


def _prior_table(prior: DiscretePrior) -> list:
    idx = prior.support_indices()
    return [[float(prior.grid.points[i]), float(prior.weights[i])] for i in idx]


def _prior_csv(prior: DiscretePrior) -> str:
    idx = prior.support_indices()
    return render_csv({"theta": prior.grid.points[idx], "value": prior.weights[idx]})


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _provenance(grid: Grid, iterations: int) -> dict:
    return {
        "grid": {
            "n": grid.n,
            "lo": float(grid.points[0]),
            "hi": float(grid.points[-1]),
            "max_spacing": grid.max_spacing,
        },
        "tolerances": {"membership": MEMBERSHIP_TOL, "feasibility": FEAS_TOL, "pivot": PIVOT_TOL},
        "solver_iterations": iterations,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# commands

def _load_problem(args):
    """The spec named by --spec, its grid, payoff and ambiguity set."""
    try:
        doc = json.loads(Path(args.spec).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {args.spec}: {exc}") from exc
    spec = parse_spec(doc)
    grid = build_grid(spec, args.grid_spacing)
    return spec, grid, build_value(spec, grid), build_ambiguity(spec, grid)


def cmd_guarantee(args) -> int:
    spec, grid, v, amb = _load_problem(args)
    rep = worst_case(v, amb)
    result = {
        "command": "guarantee",
        "spec": spec,
        "status": rep.status.value,
        "value": None if rep.worst_prior is None else rep.value,
        "active_constraints": rep.active_constraints,
        "worst_prior": None if rep.worst_prior is None else _prior_table(rep.worst_prior),
        "provenance": _provenance(grid, rep.iterations),
    }
    files = {"guarantee_report.json": _report_json(result)}
    if rep.worst_prior is not None:
        files["worst_prior.csv"] = _prior_csv(rep.worst_prior)
    _write_outputs(args.out, files)
    if rep.status is LpStatus.OPTIMAL:
        print(f"guarantee value = {_fmt(rep.value)}")
        return EXIT_OK
    print(f"guarantee failed: {rep.status.value}")
    return EXIT_INFEASIBLE


def cmd_check_robust(args) -> int:
    spec, grid, v, amb = _load_problem(args)
    cert = check_robust(v, amb)
    result = {
        "command": "check_robust",
        "spec": spec,
        "verdict": cert.verdict.value,
        "guarantee": cert.guarantee,
        "gap": cert.gap,
        "threshold": cert.threshold,
        "h_schedule": cert.h_schedule,
        "envelope_values": cert.envelope_values,
        "witness_payoffs": cert.witness_payoffs,
        "provenance": _provenance(grid, cert.iterations),
    }
    files = {"robustness_report.json": _report_json(result)}
    if cert.witness:
        seq, theta, weight = [], [], []
        for k, w in enumerate(cert.witness):
            for t, m in _prior_table(w):
                seq.append(k)
                theta.append(t)
                weight.append(m)
        files["witnesses.csv"] = render_csv({"sequence": seq, "theta": theta, "value": weight})
    _write_outputs(args.out, files)
    print(f"verdict = {cert.verdict.value} (guarantee {_fmt(cert.guarantee)}, gap {_fmt(cert.gap)})")
    if cert.verdict is Verdict.ROBUST:
        return EXIT_OK
    if cert.verdict is Verdict.NON_ROBUST:
        return EXIT_NON_ROBUST
    return EXIT_INCONCLUSIVE


def cmd_robustify(args) -> int:
    spacing = args.grid_spacing or DEFAULT_SPACING
    grid = monopoly_grid(spacing=spacing, theta_bar=args.theta_bar, r=args.r)
    sol = robustify(args.theta_bar, args.r, grid)
    saddle = verify_saddle(sol)
    regret = -cdf_value(sol.qhat, NEG_REGRET).values
    result = {
        "command": "robustify",
        "theta_bar": sol.theta_bar,
        "r": sol.r,
        "case": sol.case.value,
        "alpha": sol.alpha,
        "kappa": sol.kappa,
        "beta": sol.beta,
        "critical_radius": sol.r_hat,
        "regret_guarantee": sol.guarantee,
        "saddle": {
            "designer_slack": saddle.designer_slack,
            "nature_slack": saddle.nature_slack,
            "wasserstein_residual": saddle.wasserstein_residual,
        },
        "provenance": _provenance(grid, 0),
    }
    files = {
        "robustify_report.json": _report_json(result),
        "mechanism.csv": render_csv(
            {"theta": grid.points, "qhat": sol.qhat.q, "regret": regret}
        ),
        "worst_prior.csv": _prior_csv(sol.worst_prior),
    }
    _write_outputs(args.out, files)
    print(
        f"robustified mechanism: case={sol.case.value} kappa={_fmt(sol.kappa)} "
        f"guarantee={_fmt(sol.guarantee)}"
    )
    return EXIT_OK


FIGURES = ("fig1", "fig2", "fig3", "fig4")


def cmd_figure(args) -> int:
    spacing = args.grid_spacing or DEFAULT_SPACING
    name = args.name
    files = {}
    if name == "fig1":
        grid = monopoly_grid(spacing=spacing, extra=[0.4])
        ex = median_example_bundle(0.4, grid)
        files["fig1_value.csv"] = render_csv({"theta": grid.points, "value": ex.value_fn.values})
        files["fig1_worst_cdf.csv"] = render_csv(
            {"theta": grid.points, "value": ex.saddle_prior.cdf()}
        )
    elif name == "fig2":
        grid = monopoly_grid(spacing=spacing, theta_bar=0.5)
        regret = -cdf_value(bs_optimal_cdf(0.5, grid), NEG_REGRET).values
        files["fig2_regret.csv"] = render_csv({"theta": grid.points, "value": regret})
    elif name == "fig3":
        grid = monopoly_grid(spacing=spacing, extra=[0.3, 0.4, 0.6])
        files["fig3_value.csv"] = render_csv(
            {"theta": grid.points, "value": persuasion_value(0.3, grid).values}
        )
    elif name == "fig4":
        manifest = {}
        for r in (0.0, 0.001, 0.003, 0.006):
            grid = monopoly_grid(spacing=spacing, theta_bar=0.5, r=r)
            if r == 0.0:
                regret = -cdf_value(bs_optimal_cdf(0.5, grid), NEG_REGRET).values
                on_plateau = (grid.points >= 0.5) & (grid.points <= 1.0)
                kink, plateau = 0.5, float(np.min(regret[on_plateau]))
            else:
                sol = robustify(0.5, r, grid)
                regret = -cdf_value(sol.qhat, NEG_REGRET).values
                kink = sol.kappa
                plateau = sol.guarantee - (sol.alpha - 1.0) * r
            files[f"fig4_regret_r{_fmt(r)}.csv"] = render_csv(
                {"theta": grid.points, "value": regret}
            )
            manifest[_fmt(r)] = {"kink": kink, "plateau": plateau}
        files["fig4_manifest.json"] = _report_json({"command": "figure", "name": "fig4", "series": manifest})
    _write_outputs(args.out, files)
    print(f"{name}: wrote {len(files)} file(s) to {args.out or '(nowhere, no --out)'}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _configure_logging():
    level = os.environ.get("ROBUSTMD_LOG", "quiet").strip().lower()
    levels = {"quiet": logging.WARNING, "debug": logging.DEBUG}  # robustmd logs at debug only
    if level not in levels:
        print(f"warning: unknown ROBUSTMD_LOG={level!r}, using quiet", file=sys.stderr)
    logger = logging.getLogger("robustmd")
    logger.setLevel(levels.get(level, logging.WARNING))  # every call: main may run many times
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(name)s %(message)s"))
        logger.addHandler(handler)


def _add_common(p):
    p.add_argument("--out", default=None, help="output directory for reports and CSV files")
    p.add_argument("--grid-spacing", type=float, default=None, help="override grid spacing")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="robustmd", description=__doc__)
    ap.add_argument("--version", action="version", version=f"robustmd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("guarantee", help="worst-case payoff over an ambiguity set")
    p.add_argument("--spec", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_guarantee)

    p = sub.add_parser("check-robust", help="robustness certificate for a guarantee")
    p.add_argument("--spec", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_check_robust)

    p = sub.add_parser("robustify", help="robustified regret-minimizing mechanism")
    p.add_argument("--theta-bar", type=float, required=True, dest="theta_bar")
    p.add_argument("--r", type=float, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_robustify)

    p = sub.add_parser("figure", help="emit the data series behind a bundled figure")
    p.add_argument("--name", required=True, choices=FIGURES)
    _add_common(p)
    p.set_defaults(fn=cmd_figure)
    return ap


def main(argv=None) -> int:
    _configure_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.grid_spacing is not None and not 0 < args.grid_spacing < math.inf:
            ap.error("--grid-spacing must be finite and positive")
    except SystemExit as exc:  # argparse exits 2 on usage errors, which is the infeasible code
        return EXIT_OK if exc.code == 0 else EXIT_BAD_SPEC
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except InfeasibleSetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except MemoryError as exc:  # an allocation numpy refused; a kernel OOM kill cannot be caught
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except LpNumericalError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
