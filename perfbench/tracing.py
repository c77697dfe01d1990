"""Spans at robustmd's module boundaries, recorded from outside the program.

``Tracer.install`` replaces each function that one robustmd module imports
from another (and the entry points the benchmark calls) by a wrapper that
records a span: name, start, end, parent span and op id, plus a few
attributes read from the arguments and the result. ``uninstall`` restores
the originals, so untraced passes run the unmodified program. Spans stay in
memory until the run writes them out.

A span's name is ``<layer>.<function>``; the layer is the robustmd module
that owns the function. Self time is a span's duration minus the time its
child spans cover.

Which end-to-end metric each layer metric should move:

- optim.*: ops_per_s on coupling and transport, where pivoting is nearly
  all op time; op_tail_ms on paper (check-robust) but not op_p50_ms.
  optim.tableau_bytes_computed (8 m (N + m + 1) of the largest solve)
  moves peak_rss_mb on coupling.
- guarantee.*: ops_per_s on coupling (row and coupling-column building, and
  the second, smallest-mean LP of each canonical solve).
- robustness.*: op_tail_ms on paper and ops_per_s on coupling (window loop
  and witness construction).
- measures.lsc_envelope_*: op_tail_ms on paper.
- ambiguity.*: ops_per_s on transport.
- mechanisms.*, cli.*: op_p50_ms on paper, whose fast ops spend most of
  their time outside LP pivots.
"""

import math
import statistics
import time

import robustmd.ambiguity
import robustmd.cli
import robustmd.guarantee
import robustmd.mechanisms
import robustmd.robustness
from robustmd.optim import LpNumericalError, LpStatus

LAYERS = ("optim", "guarantee", "robustness", "ambiguity", "measures", "mechanisms", "cli")

_PARSE_BUILD = ("cli.parse_spec", "cli.build_grid", "cli.build_value", "cli.build_ambiguity")


def _lp_attrs(attrs, args, kwargs, out):
    """Tableau size of the standard form solve_lp builds, and the solve outcome."""
    lp = args[0]
    n_struct = upper_rows = 0
    for lo, hi in lp.bounds:
        if math.isfinite(lo):
            n_struct += 1
            upper_rows += math.isfinite(hi)
        else:
            n_struct += 1 if math.isfinite(hi) else 2
    m = len(lp.rows) + upper_rows
    n_slack = sum(1 for r in lp.rows if r.relation != "=") + upper_rows
    attrs["rows"], attrs["cols"] = m, n_struct + n_slack
    if out is not None:
        attrs["iterations"] = out.iterations
        attrs["optimal"] = out.status is LpStatus.OPTIMAL


def _bytes_written(attrs, args, kwargs, out):
    out_dir, files = args
    attrs["bytes"] = 0 if out_dir is None else sum(len(t.encode()) for t in files.values())


# (module, attribute, span name, attribute hook). Each entry is a call that
# crosses a module boundary, except guarantee._canonical_solve, which marks
# the value LP and the smallest-mean LP that follows it.
BOUNDARIES = [
    (robustmd.guarantee, "solve_lp", "optim.solve_lp", _lp_attrs),
    (robustmd.ambiguity, "solve_lp", "optim.solve_lp", _lp_attrs),
    (robustmd.mechanisms, "solve_bracketed", "optim.solve_bracketed", None),
    (robustmd.guarantee, "_canonical_solve", "guarantee._canonical_solve", None),
    (robustmd.robustness, "worst_case", "guarantee.worst_case", None),
    (robustmd.mechanisms, "worst_case_ball", "guarantee.worst_case_ball", None),
    (robustmd.cli, "worst_case", "guarantee.worst_case", None),
    (robustmd.cli, "worst_case_ball", "guarantee.worst_case_ball", None),
    (robustmd.guarantee, "base_rows", "ambiguity.base_rows", None),
    (robustmd.guarantee, "row_lipschitz", "ambiguity.row_lipschitz", None),
    (robustmd.ambiguity, "distance_to", "ambiguity.distance_to", None),
    (robustmd.mechanisms, "distance_to", "ambiguity.distance_to", None),
    (robustmd.ambiguity, "contains", "ambiguity.contains", None),
    (robustmd.ambiguity, "rich_project_moment", "ambiguity.rich_project_moment", None),
    (robustmd.robustness, "lsc_envelope", "measures.lsc_envelope", None),
    (robustmd.robustness, "lsc_defect_indices", "measures.lsc_defect_indices", None),
    (robustmd.cli, "check_robust", "robustness.check_robust", None),
    (robustmd.cli, "robustify", "mechanisms.robustify", None),
    (robustmd.cli, "verify_saddle", "mechanisms.verify_saddle", None),
    (robustmd.cli, "monopoly_grid", "mechanisms.monopoly_grid", None),
    (robustmd.cli, "median_example_bundle", "mechanisms.median_example_bundle", None),
    (robustmd.cli, "bs_optimal_cdf", "mechanisms.bs_optimal_cdf", None),
    (robustmd.cli, "cdf_value", "mechanisms.cdf_value", None),
    (robustmd.cli, "persuasion_value", "mechanisms.persuasion_value", None),
    (robustmd.cli, "posted_price_value", "mechanisms.posted_price_value", None),
    (robustmd.cli, "main", "cli.main", None),
    (robustmd.cli, "parse_spec", "cli.parse_spec", None),
    (robustmd.cli, "build_grid", "cli.build_grid", None),
    (robustmd.cli, "build_value", "cli.build_value", None),
    (robustmd.cli, "build_ambiguity", "cli.build_ambiguity", None),
    (robustmd.cli, "_write_outputs", "cli._write_outputs", _bytes_written),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "children")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, start, parent, op
        self.attrs, self.children = {}, []

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - sum(c.dur for c in self.children)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent, self.op)
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
            self._stack.append(span)
            out = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except LpNumericalError:
                span.attrs["numerical_error"] = True
                raise
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(span.attrs, args, kwargs, out)

        return traced

    def install(self):
        for module, attr, name, hook in BOUNDARIES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_op(self, op_id: int, name: str):
        """Open the root span of one op; its child spans carry op_id."""
        span = Span("bench.op", 0.0, None, op_id)
        span.attrs["op"] = name
        self.spans.append(span)
        self._stack.append(span)
        self.op = op_id
        span.start = time.perf_counter()

    def end_op(self):
        self._stack.pop().end = time.perf_counter()
        self.op = None


def span_records(spans: list, t0: float) -> list:
    """Spans as JSON-ready dicts; parent is an index into the same list."""
    index = {id(s): k for k, s in enumerate(spans)}
    return [
        {
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "parent": None if s.parent is None else index[id(s.parent)],
            "op": s.op,
            "attrs": s.attrs,
        }
        for s in spans
    ]


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times of one traced pass (the spans it recorded)."""

    def named(name):
        return [s for s in spans if s.name == name]

    lps = named("optim.solve_lp")
    pivots = sum(s.attrs.get("iterations", 0) for s in lps)
    lp_time = sum(s.dur for s in lps)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += s.self_time

    canonical = 0
    for c in named("guarantee._canonical_solve"):
        solves = [k for k in c.children if k.name == "optim.solve_lp"]
        if len(solves) > 1:  # the second LP re-minimizes the mean on the optimal face
            canonical += solves[1].attrs.get("iterations", 0)

    checks = named("robustness.check_robust")
    envelope_lps = 0
    for c in checks:
        worst = [k for k in c.children if k.name == "guarantee.worst_case"]
        envelope_lps += sum(_count_descendants(w, "optim.solve_lp") for w in worst[1:])

    parse_build = sum(
        s.dur for s in spans if s.name in _PARSE_BUILD and (s.parent is None or s.parent.name not in _PARSE_BUILD)
    )
    writes = named("cli._write_outputs")

    return {
        "optim.solve_calls": (len(lps), "count"),
        "optim.pivots": (pivots, "count"),
        "optim.pivots_per_solve": (pivots / len(lps) if lps else 0.0, "pivots/solve"),
        "optim.self_s": (self_by_layer["optim"], "s"),
        "optim.us_per_pivot": (1e6 * lp_time / pivots if pivots else 0.0, "us"),
        "optim.max_rows": (max((s.attrs["rows"] for s in lps), default=0), "count"),
        "optim.max_cols": (max((s.attrs["cols"] for s in lps), default=0), "count"),
        "optim.tableau_bytes_computed": (
            max((8 * s.attrs["rows"] * (s.attrs["cols"] + s.attrs["rows"] + 1) for s in lps), default=0),
            "bytes",
        ),
        "optim.numerical_errors": (sum(1 for s in lps if s.attrs.get("numerical_error")), "count"),
        "optim.nonoptimal": (sum(1 for s in lps if s.attrs.get("optimal") is False), "count"),
        "guarantee.calls": (len(named("guarantee.worst_case")) + len(named("guarantee.worst_case_ball")), "count"),
        "guarantee.self_s": (self_by_layer["guarantee"], "s"),
        "guarantee.canonical_pivot_share": (canonical / pivots if pivots else 0.0, "frac"),
        "robustness.check_calls": (len(checks), "count"),
        "robustness.envelope_lps_per_check": (envelope_lps / len(checks) if checks else 0.0, "lps/check"),
        "robustness.self_s": (self_by_layer["robustness"], "s"),
        "measures.lsc_envelope_calls": (len(named("measures.lsc_envelope")), "count"),
        "measures.lsc_envelope_s": (sum(s.dur for s in named("measures.lsc_envelope")), "s"),
        "measures.self_s": (self_by_layer["measures"], "s"),
        "ambiguity.distance_to_calls": (len(named("ambiguity.distance_to")), "count"),
        "ambiguity.distance_to_self_s": (sum(s.self_time for s in named("ambiguity.distance_to")), "s"),
        "ambiguity.projection_s": (sum(s.dur for s in named("ambiguity.rich_project_moment")), "s"),
        "ambiguity.self_s": (self_by_layer["ambiguity"], "s"),
        "mechanisms.robustify_s": (sum(s.dur for s in named("mechanisms.robustify")), "s"),
        "mechanisms.verify_saddle_s": (sum(s.dur for s in named("mechanisms.verify_saddle")), "s"),
        "mechanisms.self_s": (self_by_layer["mechanisms"], "s"),
        "cli.parse_build_s": (parse_build, "s"),
        "cli.render_s": (sum(s.self_time for s in spans if s.name in ("cli.main", "cli._write_outputs")), "s"),
        "cli.bytes_written": (sum(s.attrs.get("bytes", 0) for s in writes), "bytes"),
        "cli.self_s": (self_by_layer["cli"], "s"),
    }


def _count_descendants(span, name) -> int:
    return sum((c.name == name) + _count_descendants(c, name) for c in span.children)


# Metrics that count work: they must repeat exactly for one seed.
EXACT = [
    "optim.solve_calls", "optim.pivots", "optim.max_rows", "optim.max_cols",
    "optim.tableau_bytes_computed", "optim.numerical_errors", "optim.nonoptimal",
    "guarantee.calls", "robustness.check_calls", "measures.lsc_envelope_calls",
    "ambiguity.distance_to_calls", "cli.bytes_written",
]


def combine(per_pass: list) -> tuple:
    """Median of each metric over traced passes; counts must agree exactly.

    Returns (metrics, drift) where drift lists counts that differed."""
    first = per_pass[0]
    drift = [
        f"{k} differs across traced passes: {[p[k][0] for p in per_pass]}"
        for k in EXACT
        if any(p[k][0] != first[k][0] for p in per_pass)
    ]
    out = {k: (statistics.median(p[k][0] for p in per_pass), unit) for k, (_, unit) in first.items()}
    for k in EXACT:
        out[k] = first[k]
    return out, drift
