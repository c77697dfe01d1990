"""Command-line front end: specs, reports, CSV series, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustmd
import robustmd.cli
import robustmd.guarantee
import robustmd.mechanisms
from conftest import stop_phase
from robustmd.ambiguity import MEMBERSHIP_TOL
from robustmd.cli import (
    AMBIGUITY_KINDS,
    EXIT_BAD_SPEC,
    EXIT_INCONCLUSIVE,
    EXIT_INFEASIBLE,
    EXIT_NON_ROBUST,
    EXIT_NUMERICAL,
    EXIT_OK,
    MOMENT_KINDS,
    VALUE_KINDS,
    SpecError,
    build_ambiguity,
    build_grid,
    build_value,
    main,
    parse_spec,
)
from robustmd.mechanisms import NEG_REGRET, REVENUE
from robustmd.optim import TIEBREAK, LpNumericalError, LpStatus, solve_lp
from robustmd.robustness import Verdict

MEDIAN_SPEC = {
    "grid": {"lo": 0.0, "hi": 1.5, "spacing": 0.0025, "extra_points": [0.4]},
    "value_function": {"kind": "posted_price", "price": 0.4, "objective": "revenue"},
    "ambiguity": {"kind": "quantile", "pairs": [[0.4, 0.5]]},
}

BS_SPEC = {
    "grid": {"lo": 0.0, "hi": 1.5, "spacing": 0.0025, "extra_points": []},
    "value_function": {"kind": "bergemann_schlag", "theta_bar": 0.5, "objective": "neg_regret"},
    "ambiguity": {"kind": "support", "a": 0.5, "b": 1.0},
}

PERSUASION_SPEC = {
    "grid": {"lo": 0.0, "hi": 1.5, "spacing": 0.0025, "extra_points": [0.4]},
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


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_spec_round_trip():
    parsed = parse_spec(MEDIAN_SPEC)
    again = parse_spec(json.loads(json.dumps(parsed)))
    assert parsed == again


def test_spec_round_trip_nested_ball():
    doc = dict(BS_SPEC, ambiguity={"kind": "wasserstein_ball", "base": BS_SPEC["ambiguity"], "radius": 0.003})
    parsed = parse_spec(doc)
    assert parse_spec(json.loads(json.dumps(parsed))) == parsed


def test_spec_rejects_malformed():
    with pytest.raises(Exception):
        parse_spec({"grid": {"lo": 0, "hi": 1, "spacing": 0.1}})  # missing fields
    bad = json.loads(json.dumps(MEDIAN_SPEC))
    bad["ambiguity"]["kind"] = "prokhorov"
    with pytest.raises(Exception):
        parse_spec(bad)


def test_builders_produce_library_objects():
    spec = parse_spec(PERSUASION_SPEC)
    grid = build_grid(spec)
    assert grid.index_of(0.3) >= 0 and grid.index_of(0.6) >= 0  # structural insertion
    v = build_value(spec, grid)
    assert v.values[grid.index_of(0.3)] == pytest.approx(0.6, abs=1e-12)
    amb = build_ambiguity(spec, grid)
    assert len(amb.rows) == 2


def test_guarantee_command_median(tmp_path, capsys):
    spec = write_spec(tmp_path, MEDIAN_SPEC)
    out = tmp_path / "out"
    code = main(["guarantee", "--spec", spec, "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "guarantee_report.json").read_text())
    assert report["value"] == pytest.approx(0.2, abs=1e-9)
    assert report["status"] == "optimal"
    table = dict((round(t, 6), w) for t, w in report["worst_prior"])
    assert table[0.0] == pytest.approx(0.5, abs=1e-9)
    assert table[0.4] == pytest.approx(0.5, abs=1e-9)


def test_guarantee_command_bs(tmp_path):
    spec = write_spec(tmp_path, BS_SPEC)
    code = main(["guarantee", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "o" / "guarantee_report.json").read_text())
    assert report["value"] == pytest.approx(-0.346574, abs=2 * 0.0025)


def test_guarantee_command_infeasible(tmp_path):
    doc = json.loads(json.dumps(MEDIAN_SPEC))
    doc["ambiguity"] = {
        "kind": "linear",
        "rows": [{"g": {"kind": "identity"}, "lo": 5.0, "hi": 5.0}],
    }
    code = main(["guarantee", "--spec", write_spec(tmp_path, doc)])
    assert code == EXIT_INFEASIBLE


def test_check_robust_command_infeasible(tmp_path, capsys):
    doc = json.loads(json.dumps(MEDIAN_SPEC))
    doc["ambiguity"] = {
        "kind": "linear",
        "rows": [{"g": {"kind": "identity"}, "lo": 5.0, "hi": 5.0}],
    }
    out = tmp_path / "out"
    code = main(["check-robust", "--spec", write_spec(tmp_path, doc), "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_guarantee_command_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["guarantee", "--spec", str(p)]) == EXIT_BAD_SPEC


def test_check_robust_command_exit_codes(tmp_path):
    out = tmp_path / "m"
    assert main(["check-robust", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)]) == EXIT_NON_ROBUST
    witness_lines = (out / "witnesses.csv").read_text().strip().splitlines()
    assert witness_lines[0] == "sequence,theta,value"
    assert len(witness_lines) > 4

    robust_doc = json.loads(json.dumps(BS_SPEC))
    robust_doc["value_function"]["theta_bar"] = 0.2
    robust_doc["ambiguity"] = {"kind": "support", "a": 0.2, "b": 1.0}
    assert main(["check-robust", "--spec", write_spec(tmp_path, robust_doc, "r.json")]) == EXIT_OK


def test_inconclusive_verdict_exit_code(tmp_path, monkeypatch, capsys):
    check_robust = robustmd.cli.check_robust

    def inconclusive(v, amb):
        cert = check_robust(v, amb)  # witnesses come only with a non-robust verdict
        return dataclasses.replace(cert, verdict=Verdict.INCONCLUSIVE, witness=None, witness_payoffs=None)

    monkeypatch.setattr(robustmd.cli, "check_robust", inconclusive)
    out = tmp_path / "m"
    assert main(["check-robust", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.startswith("verdict = inconclusive (")
    assert json.loads((out / "robustness_report.json").read_text())["verdict"] == "inconclusive"
    assert not (out / "witnesses.csv").exists()


def test_check_robust_persuasion_gap(tmp_path):
    out = tmp_path / "p"
    code = main(["check-robust", "--spec", write_spec(tmp_path, PERSUASION_SPEC), "--out", str(out)])
    assert code == EXIT_NON_ROBUST
    report = json.loads((out / "robustness_report.json").read_text())
    assert report["gap"] == pytest.approx(0.4, abs=1e-3)


def test_robustify_command(tmp_path):
    out = tmp_path / "rb"
    code = main(["robustify", "--theta-bar", "0.5", "--r", "0.003", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "robustify_report.json").read_text())
    assert report["kappa"] == pytest.approx(0.446237, abs=1e-4)
    assert report["saddle"]["wasserstein_residual"] <= 2 * 0.0025
    rows = (out / "mechanism.csv").read_text().strip().splitlines()
    assert rows[0] == "theta,qhat,regret"
    # kappa column: q stays zero below kappa and lifts off just above
    kappa = report["kappa"]
    for line in rows[1:]:
        theta, qhat, _ = (float(x) for x in line.split(","))
        if theta < kappa - 1e-9:
            assert qhat == 0.0
    assert main(["robustify", "--theta-bar", "1.5", "--r", "0.003"]) == EXIT_BAD_SPEC


@pytest.mark.parametrize("argv, mechanisms", [
    (["robustify", "--theta-bar", "0.5", "--r", "0.003"], 1),
    (["figure", "--name", "fig4"], 2),  # radii 0.001 and 0.003; 0.006 is past the critical radius
])
def test_each_robustified_mechanism_solves_alpha_once(monkeypatch, argv, mechanisms):
    # monopoly_grid and robustify share one saddle shape per mechanism
    calls = []
    bisect = robustmd.mechanisms.solve_bracketed
    monkeypatch.setattr(robustmd.mechanisms, "solve_bracketed", lambda *a, **k: calls.append(a) or bisect(*a, **k))
    assert main([*argv, "--grid-spacing", "0.01"]) == EXIT_OK
    assert len(calls) == mechanisms


@pytest.mark.parametrize(
    "args, code",
    [
        (["--theta-bar", "0.5", "--r", "5e-8"], EXIT_OK),  # the exponent root near 686, where floats sit 1.1e-13 apart
        # beta overflows the float range, above and below theta_bar = 1/e
        (["--theta-bar", "0.5", "--r", "320", "--grid-spacing", "1"], EXIT_BAD_SPEC),
        (["--theta-bar", "0.2", "--r", "300", "--grid-spacing", "1"], EXIT_BAD_SPEC),
    ],
)
def test_robustify_extreme_radius_exits(tmp_path, args, code):
    # a subprocess with a timeout, so that a hang fails the test instead of stalling the suite
    src = str(Path(robustmd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "robustmd.cli", "robustify", *args]
    res = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    if code == EXIT_BAD_SPEC:
        assert res.stderr.startswith("error: beta") and f"radius r = {args[3]}" in res.stderr


def test_figure_commands(tmp_path):
    for name, expect in (("fig1", "fig1_value.csv"), ("fig2", "fig2_regret.csv"), ("fig3", "fig3_value.csv")):
        out = tmp_path / name
        assert main(["figure", "--name", name, "--out", str(out)]) == EXIT_OK
        assert (out / expect).exists()

    out = tmp_path / "fig4"
    assert main(["figure", "--name", "fig4", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "fig4_manifest.json").read_text())["series"]
    kinks = [manifest[k]["kink"] for k in ("0", "0.001", "0.003", "0.006")]
    assert kinks == pytest.approx([0.5, 0.468712, 0.446237, 0.428882], abs=1e-4)

    missing = tmp_path / "nope"
    assert main(["figure", "--name", "fig9", "--out", str(missing)]) == EXIT_BAD_SPEC
    assert not missing.exists()  # no partial output on failure


def test_fig2_plateau_value(tmp_path):
    out = tmp_path / "f2"
    main(["figure", "--name", "fig2", "--out", str(out)])
    rows = (out / "fig2_regret.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(a) for a in line.split(",")] for line in rows])
    on = (data[:, 0] >= 0.5) & (data[:, 0] <= 1.0)
    assert np.max(np.abs(data[on, 1] - 0.346574)) <= 2 * 0.0025


def test_fig3_persuasion_tick(tmp_path):
    out = tmp_path / "f3"
    main(["figure", "--name", "fig3", "--out", str(out)])
    rows = (out / "fig3_value.csv").read_text().strip().splitlines()[1:]
    lookup = {round(float(l.split(",")[0]), 6): float(l.split(",")[1]) for l in rows}
    assert lookup[0.3] == pytest.approx(0.6, abs=1e-9)


def test_report_determinism(tmp_path):
    spec = write_spec(tmp_path, MEDIAN_SPEC)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["guarantee", "--spec", spec, "--out", str(out1)])
    main(["guarantee", "--spec", spec, "--out", str(out2)])
    assert (out1 / "guarantee_report.json").read_bytes() == (out2 / "guarantee_report.json").read_bytes()


def test_csv_significant_digits(tmp_path):
    out = tmp_path / "sig"
    main(["guarantee", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)])
    for line in (out / "worst_prior.csv").read_text().strip().splitlines()[1:]:
        for field in line.split(","):
            assert len(field.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 10


def test_grid_spacing_override(tmp_path):
    out = tmp_path / "ov"
    main(["guarantee", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out), "--grid-spacing", "0.01"])
    report = json.loads((out / "guarantee_report.json").read_text())
    assert report["provenance"]["grid"]["max_spacing"] == pytest.approx(0.01, abs=1e-9)
    assert report["value"] == pytest.approx(0.2, abs=1e-9)


def test_log_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTMD_LOG", "debug")
    assert main(["figure", "--name", "fig3", "--out", str(tmp_path / "d")]) == EXIT_OK
    monkeypatch.setenv("ROBUSTMD_LOG", "bogus")
    assert main(["figure", "--name", "fig3", "--out", str(tmp_path / "d2")]) == EXIT_OK


def _fresh_main(calls):
    """Run main once per (ROBUSTMD_LOG, argv) in one fresh Python process, so the
    CLI's logging setup is the only one; returns (exit codes, stderr lines)."""
    src = str(Path(robustmd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, os, sys; from robustmd.cli import main\n"
        "codes = []\n"
        "for level, argv in json.loads(sys.argv[1]):\n"
        "    os.environ['ROBUSTMD_LOG'] = level\n"
        "    codes.append(main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    res = subprocess.run([sys.executable, "-c", code, json.dumps(calls)], env=env, capture_output=True, text=True)
    return json.loads(res.stdout.splitlines()[-1]), res.stderr.splitlines()  # after main's own output


def test_debug_log_records_each_lp(tmp_path):
    spec = write_spec(tmp_path, _with(MEDIAN_SPEC, ["grid", "spacing"], 0.05))
    codes, stderr = _fresh_main([["debug", ["guarantee", "--spec", spec]]])
    assert codes == [EXIT_OK]
    lines = [line for line in stderr if line.startswith("robustmd.optim solve_lp ")]
    assert len(lines) == 1  # one LP per guarantee; its tiebreak picks the worst prior
    assert "status=optimal" in lines[0] and "pivots=" in lines[0] and "rows=" in lines[0]
    assert all(f" {key}=" in lines[0] for key in ("phase1", "degenerate", "fallback", "tiebreak"))
    assert "start=" not in lines[0]


def test_debug_log_records_each_envelope_window(tmp_path):
    spec = write_spec(tmp_path, _with(MEDIAN_SPEC, ["grid", "spacing"], 0.05))
    codes, stderr = _fresh_main([["debug", ["check-robust", "--spec", spec]]])
    assert codes == [EXIT_NON_ROBUST]
    lines = [line for line in stderr if line.startswith("robustmd.robustness check_robust window ")]
    assert len(lines) == 5
    assert all("h=" in line and "envelope=" in line and "pivots=" in line for line in lines)


def test_plain_set_logs_no_column_generation_round(tmp_path):
    spec = write_spec(tmp_path, _with(MEDIAN_SPEC, ["grid", "spacing"], 0.05))
    codes, stderr = _fresh_main([["debug", ["guarantee", "--spec", spec]]])
    assert codes == [EXIT_OK]
    assert [line for line in stderr if line.startswith("robustmd.optim solve_lp ")]
    assert not [line for line in stderr if "worst_case_ball round=" in line]


def test_debug_log_records_each_column_generation_round(tmp_path):
    ball = {"kind": "wasserstein_ball", "radius": 0.02, "base": {
        "kind": "linear", "continuous_moments": True, "rows": [{"g": {"kind": "identity"}, "lo": 0.6, "hi": 0.6}]}}
    spec = write_spec(tmp_path, _with(_with(BS_SPEC, ["grid", "spacing"], 0.05), ["ambiguity"], ball))
    codes, stderr = _fresh_main([["debug", ["check-robust", "--spec", spec]]])
    assert codes == [EXIT_OK]
    windows = [line for line in stderr if line.startswith("robustmd.robustness check_robust window ")]
    rounds = [line for line in stderr if line.startswith("robustmd.guarantee worst_case_ball round=")]
    # one ball LP for the guarantee and one per envelope window, each counting its rounds from 1
    starts = [k for k, line in enumerate(rounds) if " round=1 " in line]
    assert starts[0] == 0 and len(starts) == len(windows) + 1
    for lo, hi in zip(starts, starts[1:] + [len(rounds)]):
        ball_lp = rounds[lo:hi]
        assert all(f" round={k} columns=" in line and " min_reduced_cost=" in line for k, line in enumerate(ball_lp, 1))
        assert [" entered=0 " in line for line in ball_lp] == [False] * (len(ball_lp) - 1) + [True]


def test_log_level_follows_each_main_call(tmp_path):
    spec = write_spec(tmp_path, _with(MEDIAN_SPEC, ["grid", "spacing"], 0.05))
    calls = [["quiet", ["guarantee", "--spec", spec]], ["debug", ["guarantee", "--spec", spec]]]
    codes, stderr = _fresh_main(calls)
    assert codes == [EXIT_OK, EXIT_OK]
    lines = [line for line in stderr if line.startswith("robustmd.optim solve_lp ")]
    assert len(lines) == 1  # the debug call's one LP, printed once


def _singular(lp):
    raise LpNumericalError("singular basis after refactorization retry")


def _half_mass(lp):
    sol = solve_lp(lp)
    return dataclasses.replace(sol, x=0.5 * sol.x)


@pytest.mark.parametrize(
    "solver, message",
    [
        (_singular, "singular basis after refactorization retry"),
        (_half_mass, "far from 1"),  # _canonical_solve's check of the worst prior's mass
    ],
    ids=["solver", "prior_mass"],
)
def test_numerical_breakdown_exit_code(tmp_path, monkeypatch, capsys, solver, message):
    monkeypatch.setattr(robustmd.guarantee, "solve_lp", solver)
    out = tmp_path / "out"
    assert main(["guarantee", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
    assert not out.exists()


def test_uncertified_optimum_exit_code(tmp_path, monkeypatch, capsys):
    stop_phase(monkeypatch, TIEBREAK)  # the value LP's phase-2 vertex is not the smallest-mean one
    out = tmp_path / "out"
    assert main(["guarantee", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: ") and err.endswith("at the reported optimum\n")
    assert err.count("\n") == 1 and not out.exists()


# ---------------------------------------------------------------------------
# usage errors, wrong-typed fields and spec normalization


def test_usage_errors_exit_bad_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, MEDIAN_SPEC)
    assert main(["guarantee"]) == EXIT_BAD_SPEC  # missing --spec
    assert main(["robustify", "--theta-bar", "0.5", "--r", "abc"]) == EXIT_BAD_SPEC
    assert main(["guarantee", "--spec", spec, "--bogus"]) == EXIT_BAD_SPEC
    assert main(["guarantee", "--spec", spec, "--tol", "1e-6"]) == EXIT_BAD_SPEC  # no such knob
    assert main(["--help"]) == EXIT_OK
    assert main(["--version"]) == EXIT_OK


@pytest.mark.parametrize("spacing", ["0", "-0.01", "nan"])
def test_grid_spacing_must_be_positive(tmp_path, spacing):
    out = tmp_path / "o"
    args = ["--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out), "--grid-spacing", spacing]
    assert main(["guarantee"] + args) == EXIT_BAD_SPEC
    assert main(["figure", "--name", "fig2", "--out", str(out), "--grid-spacing", spacing]) == EXIT_BAD_SPEC
    assert not out.exists()


def test_coupling_value_lp_phase_one_is_short(tmp_path, monkeypatch):
    # a Wasserstein ball around a mean set at 1/40: the value LP is a 3-row,
    # 3,849-column coupling LP, where Bland's rule took 3,414 phase-1 pivots
    mean = {"kind": "linear", "continuous_moments": True, "rows": [{"g": {"kind": "identity"}, "lo": 0.6, "hi": 0.6}]}
    doc = dict(BS_SPEC, ambiguity={"kind": "wasserstein_ball", "base": mean, "radius": 0.02})
    sols = []

    def recording(lp):
        sols.append(solve_lp(lp))
        return sols[-1]

    monkeypatch.setattr(robustmd.guarantee, "solve_lp", recording)
    assert main(["guarantee", "--spec", write_spec(tmp_path, doc), "--grid-spacing", "0.025"]) == EXIT_OK
    assert sols[0].status is LpStatus.OPTIMAL
    assert sols[0].phase1_pivots < 20 and sols[0].fallback_pivots == 0


def test_provenance_records_membership_tolerance(tmp_path):
    out = tmp_path / "o"
    main(["guarantee", "--spec", write_spec(tmp_path, MEDIAN_SPEC), "--out", str(out)])
    report = json.loads((out / "guarantee_report.json").read_text())
    assert report["provenance"]["tolerances"]["membership"] == MEMBERSHIP_TOL
    assert report["provenance"]["tolerances"] == {"membership": 1e-8, "feasibility": 1e-8, "pivot": 1e-10}


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


WRONG_TYPED = {
    "price": _with(MEDIAN_SPEC, ["value_function", "price"], [0.4]),
    "pairs": _with(MEDIAN_SPEC, ["ambiguity", "pairs"], 5),
    "rows": _with(PERSUASION_SPEC, ["ambiguity", "rows"], [5]),
    "grid": _with(MEDIAN_SPEC, ["grid"], [1, 2]),
    "options": _with(MEDIAN_SPEC, ["options"], [1]),
    "extra_points": _with(MEDIAN_SPEC, ["grid", "extra_points"], None),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPED))
def test_wrong_typed_field_is_spec_error(tmp_path, capsys, name):
    with pytest.raises(SpecError):
        parse_spec(WRONG_TYPED[name])
    assert main(["guarantee", "--spec", write_spec(tmp_path, WRONG_TYPED[name])]) == EXIT_BAD_SPEC
    err = capsys.readouterr().err
    assert err.startswith("spec error:") and "Traceback" not in err


_DECREASING = {"kind": "table", "theta": [1.0, 0.0], "values": [0.0, 1.0]}

# well-typed values the library would misread or reject only later, and the
# message that names the fault
OUT_OF_RANGE = {
    "singleton_lengths": (
        _with(MEDIAN_SPEC, ["ambiguity"], {"kind": "singleton", "theta": [0.25, 0.75], "weights": [1.0]}),
        "singleton theta and weights must be nonempty and of equal length",
    ),
    "table_value_decreasing": (
        _with(MEDIAN_SPEC, ["value_function"], _DECREASING),
        "table theta must be strictly increasing",
    ),
    "table_moment_decreasing": (
        _with(MEDIAN_SPEC, ["ambiguity"], {"kind": "linear", "rows": [{"g": _DECREASING, "lo": 0.5, "hi": 0.5}]}),
        "table theta must be strictly increasing",
    ),
    "price_cdf_decreasing": (
        _with(MEDIAN_SPEC, ["value_function"], {"kind": "price_cdf", "theta": [0.6, 0.4], "q": [0.5, 1.0]}),
        "price_cdf theta must be strictly increasing",
    ),
    "nan_price": (_with(MEDIAN_SPEC, ["value_function", "price"], math.nan), "posted_price.price must be finite"),
    "infinite_radius": (_with(MEDIAN_SPEC, ["options"], {"radius": math.inf}), "options.radius must be finite"),
    "negative_power_at_zero": (
        _with(
            _with(MEDIAN_SPEC, ["grid", "spacing"], 0.1),
            ["ambiguity"],
            {"kind": "linear", "rows": [{"g": {"kind": "power", "exponent": -1}, "lo": 1.0}]},
        ),
        "power.exponent must be nonnegative on a grid containing 0",
    ),
}


# fields no kind, row or section declares: (spec, context of the error, the field)
UNKNOWN_FIELD = {
    "top_level": (_with(MEDIAN_SPEC, ["extra"], 1), "spec", "extra"),
    "grid": (_with(MEDIAN_SPEC, ["grid", "spcing"], 3), "grid", "spcing"),
    "value_function": (_with(MEDIAN_SPEC, ["value_function", "prise"], 0.9), "posted_price", "prise"),
    "moment_row": (_with(PERSUASION_SPEC, ["ambiguity", "rows", 0, "hii"], 0.4), "linear.rows[0]", "hii"),
    "moment_function": (_with(PERSUASION_SPEC, ["ambiguity", "rows", 1, "g", "c"], 0.6), "indicator_outside", "c"),
    "ball_base": (_with(dict(BS_SPEC, options={"radius": 0.1}), ["ambiguity", "lvl"], 1), "support", "lvl"),
    "options": (_with(MEDIAN_SPEC, ["options"], {"radiuss": 0.05}), "options", "radiuss"),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_FIELD))
def test_unknown_field_is_spec_error(tmp_path, capsys, name):
    doc, ctx, key = UNKNOWN_FIELD[name]
    assert main(["guarantee", "--spec", write_spec(tmp_path, doc), "--out", str(tmp_path / "out")]) == EXIT_BAD_SPEC
    assert capsys.readouterr().err == f"spec error: {ctx}: unknown field {key!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_field_is_spec_error(tmp_path, capsys, name):
    doc, message = OUT_OF_RANGE[name]
    with pytest.raises(SpecError, match=message):
        parse_spec(doc)
    assert main(["guarantee", "--spec", write_spec(tmp_path, doc)]) == EXIT_BAD_SPEC
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {message}") and "Traceback" not in err


def test_nested_payoff_points_are_on_the_grid():
    doc = dict(
        MEDIAN_SPEC,
        ambiguity={"kind": "half_space", "v": {"kind": "posted_price", "price": 0.401}, "level": 0.1},
    )
    spec = parse_spec(doc)
    grid = build_grid(spec)
    assert grid.points[grid.index_of(0.401)] == 0.401
    assert build_ambiguity(spec, grid).v.values[grid.index_of(0.401)] == pytest.approx(0.401)


def test_options_radius_becomes_a_ball():
    ball = {"kind": "wasserstein_ball", "base": BS_SPEC["ambiguity"], "radius": 0.003}
    folded = parse_spec(dict(BS_SPEC, options={"radius": 0.003}))
    assert folded["ambiguity"] == parse_spec(dict(BS_SPEC, ambiguity=ball))["ambiguity"]
    assert folded["options"] == {}
    assert parse_spec(json.loads(json.dumps(folded))) == folded
    with pytest.raises(SpecError, match="options: unknown field 'note'"):  # options holds radius alone
        parse_spec(dict(BS_SPEC, options={"radius": 0.003, "note": "kept"}))
    assert parse_spec(dict(BS_SPEC, options={"radius": 0}))["ambiguity"] == parse_spec(BS_SPEC)["ambiguity"]
    for bad in (-0.1, "0.1"):
        with pytest.raises(SpecError):
            parse_spec(dict(BS_SPEC, options={"radius": bad}))
    with pytest.raises(SpecError):  # a ball around a ball
        parse_spec(dict(BS_SPEC, ambiguity=ball, options={"radius": 0.01}))


def test_check_robust_uses_options_radius(tmp_path):
    spec = write_spec(tmp_path, dict(BS_SPEC, options={"radius": 0.003}))
    common = ["--spec", spec, "--grid-spacing", "0.01"]
    assert main(["guarantee", *common, "--out", str(tmp_path / "g")]) == EXIT_OK
    assert main(["check-robust", *common, "--out", str(tmp_path / "c")]) == EXIT_OK
    guarantee = json.loads((tmp_path / "g" / "guarantee_report.json").read_text())
    robust = json.loads((tmp_path / "c" / "robustness_report.json").read_text())
    assert robust["spec"]["ambiguity"]["kind"] == "wasserstein_ball"
    assert robust["guarantee"] == pytest.approx(guarantee["value"], abs=1e-9)
    assert guarantee["value"] < -0.346574 - 1e-3  # the ball lowers the support-set guarantee


# ---------------------------------------------------------------------------
# spec parser fuzzing: specs drawn kind by kind from the parser's own tables

_unit = st.floats(0.0, 1.0)
_level = st.floats(-2.0, 2.0)
_objective = st.sampled_from([REVENUE, NEG_REGRET])


def _increasing(elements, min_size=1, max_size=4):
    return st.lists(elements, min_size=min_size, max_size=max_size, unique=True).map(sorted)


def _table(key):
    return _increasing(_unit).flatmap(
        lambda theta: st.fixed_dictionaries(
            {"kind": st.just("table"), "theta": st.just(theta), key: st.lists(_level, min_size=len(theta), max_size=len(theta))}
        )
    )


def _price_cdf():
    steps = st.lists(_unit, min_size=0, max_size=3).map(lambda q: sorted(q) + [1.0])
    return steps.flatmap(
        lambda q: st.fixed_dictionaries(
            {
                "kind": st.just("price_cdf"),
                "theta": st.lists(_unit, min_size=len(q), max_size=len(q), unique=True).map(sorted),
                "q": st.just(q),
                "objective": _objective,
            }
        )
    )


VALUE_STRATEGIES = {
    "posted_price": st.fixed_dictionaries({"kind": st.just("posted_price"), "price": _unit, "objective": _objective}),
    "bergemann_schlag": st.fixed_dictionaries(
        {"kind": st.just("bergemann_schlag"), "theta_bar": st.floats(0.0, 0.99), "objective": _objective}
    ),
    "price_cdf": _price_cdf(),
    "persuasion": st.fixed_dictionaries({"kind": st.just("persuasion"), "alpha": st.floats(0.01, 0.49)}),
    "table": _table("values"),
}

MOMENT_STRATEGIES = {
    "identity": st.just({"kind": "identity"}),
    "power": st.fixed_dictionaries({"kind": st.just("power"), "exponent": st.floats(0.5, 3.0)}),
    "indicator_leq": st.fixed_dictionaries({"kind": st.just("indicator_leq"), "x": _unit}),
    "indicator_outside": _increasing(_unit, 2, 2).map(
        lambda ab: {"kind": "indicator_outside", "a": ab[0], "b": ab[1]}
    ),
    "table": _table("values"),
}


def _bounds():
    finite = _increasing(_level, 1, 2).map(lambda b: (b[0], b[-1]))
    return st.one_of(finite, _level.map(lambda x: (x, None)), _level.map(lambda x: (None, x)))


_row = st.tuples(st.one_of(*MOMENT_STRATEGIES.values()), _bounds()).map(
    lambda gb: {"g": gb[0], "lo": gb[1][0], "hi": gb[1][1]}
)


def _quantile():
    return st.integers(1, 3).flatmap(
        lambda k: st.tuples(_increasing(_unit, k, k), _increasing(_unit, k, k)).map(
            lambda xa: {"kind": "quantile", "pairs": [[x, a] for x, a in zip(*xa)]}
        )
    )


def _singleton():
    return _increasing(_unit, 1, 4).flatmap(
        lambda theta: st.lists(st.floats(0.1, 1.0), min_size=len(theta), max_size=len(theta)).map(
            lambda w: {"kind": "singleton", "theta": theta, "weights": [m / sum(w) for m in w]}
        )
    )


BASE_STRATEGIES = {
    "quantile": _quantile(),
    "support": _increasing(_unit, 2, 2).map(lambda ab: {"kind": "support", "a": ab[0], "b": ab[1]}),
    "half_space": st.fixed_dictionaries(
        {"kind": st.just("half_space"), "v": st.one_of(*VALUE_STRATEGIES.values()), "level": _level}
    ),
    "singleton": _singleton(),
    "linear": st.fixed_dictionaries(
        {"kind": st.just("linear"), "rows": st.lists(_row, min_size=1, max_size=3), "continuous_moments": st.booleans()}
    ),
}
AMBIGUITY_STRATEGIES = dict(
    BASE_STRATEGIES,
    wasserstein_ball=st.fixed_dictionaries(
        {
            "kind": st.just("wasserstein_ball"),
            "base": st.one_of(*BASE_STRATEGIES.values()),
            "radius": st.floats(0.001, 0.5),
        }
    ),
)

SPECS = st.fixed_dictionaries(
    {
        "grid": st.fixed_dictionaries(
            {
                "lo": st.just(0.0),
                "hi": st.sampled_from([1.0, 1.5]),
                "spacing": st.floats(0.01, 0.1),
                "extra_points": st.lists(_unit, max_size=3),
            }
        ),
        "value_function": st.one_of(*VALUE_STRATEGIES.values()),
        "ambiguity": st.one_of(*AMBIGUITY_STRATEGIES.values()),
        "options": st.just({}),
    }
)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


def test_fuzz_strategies_cover_every_kind():
    assert set(VALUE_STRATEGIES) == set(VALUE_KINDS)
    assert set(MOMENT_STRATEGIES) == set(MOMENT_KINDS)
    assert set(AMBIGUITY_STRATEGIES) == set(AMBIGUITY_KINDS)


@FUZZ
@given(SPECS)
def test_fuzz_spec_round_trips_and_builds(doc):
    spec = parse_spec(doc)
    assert spec == doc
    assert parse_spec(json.loads(json.dumps(spec))) == spec
    grid = build_grid(spec)
    build_value(spec, grid)
    build_ambiguity(spec, grid)
    pts = VALUE_KINDS[doc["value_function"]["kind"]].points(spec["value_function"])
    pts += AMBIGUITY_KINDS[doc["ambiguity"]["kind"]].points(spec["ambiguity"])
    for p in pts:  # structural points, nested ones included, are grid points
        grid.index_of(p)


def _paths(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _wrong_types(value):
    if isinstance(value, str):
        return [5, None, ["x"], {"x": 1}]
    if isinstance(value, bool):
        return ["yes", 1, None, [True]]
    if value is None or isinstance(value, (int, float)):  # null is a valid moment bound
        return ["x", True, [0.5], {"x": 0.5}]
    if isinstance(value, list):
        return [None, 5, "ab", {"x": 1}]
    return [None, 5, "ab", [1]]


@FUZZ
@given(SPECS, st.data())
def test_fuzz_type_mutated_spec_is_spec_error(doc, data):
    path, old = data.draw(st.sampled_from(list(_paths(doc))))
    new = data.draw(st.sampled_from(_wrong_types(old)))
    mutated = _with(doc, path, new) if path else new
    with pytest.raises(SpecError):
        parse_spec(mutated)
