"""robustmd benchmark: one closed-loop caller drives the public API in-process.

    python3 perfbench/run.py --workload {paper,coupling,transport} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from any directory; the program is imported from ``src/`` next to this
directory. A run builds the workload's inputs from the seed, then repeats its
fixed op list in whole passes, one op at a time, until ``--seconds`` have
elapsed (at least one pass). Each op is timed alone; reading its outputs and
checking them happen outside the timed region. Every op result is checked
(headline numbers, exit codes, or an independent HiGHS solve) and every
repeat of an op must give a byte-identical result.

--trace 0 prints the end-to-end metrics. --trace 1 runs every op twice in a
row, untraced and traced, and prints the per-layer metrics of the traced
runs plus the tracing overhead (traced minus untraced pass time); spans are
written to ``.perfbench-traces/<workload>-seed<N>.jsonl``. --smoke shrinks
every workload to tiny grids and a few ops.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, the input sizes, per-op medians and any errors.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "coupling", "transport")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh subprocesses


def parse_args(argv):
    ap = argparse.ArgumentParser(description="robustmd benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny grids and a few ops")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def timed_setup(args, work: Path):
    """Import, input generation, grid/spec construction and one warm-up op."""
    t0 = time.perf_counter()
    import workloads  # first import pulls in numpy and robustmd

    wl = workloads.BY_NAME[args.workload](args.seed, work, args.smoke)
    wl.warmup.observe(wl.warmup.run())
    return wl, time.perf_counter() - t0


def setup_samples(args, first: float) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return samples


@dataclass
class Record:
    op: object
    pass_no: int
    dt: float
    result: object
    error: str | None


def timed_op(op, pass_no: int, records: list, tracer=None) -> float:
    """Run one op, record its result, and return its time."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(len(records), op.id)
    t0 = time.perf_counter()
    try:
        raw, error = op.run(), None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        raw, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
    result = None
    if error is None:
        try:
            result = op.observe(raw)
        except Exception as exc:
            error = f"unreadable result: {type(exc).__name__}: {exc}"
    records.append(Record(op, pass_no, dt, result, error))
    return dt


def run_pass(wl, pass_no: int, records: list, tracer=None) -> dict:
    """One pass over the op list. With a tracer every op runs twice in a row,
    untraced and traced in alternating order, so both pass times see the
    same machine state."""
    out = {"wall": 0.0}
    if tracer is None:
        for op in wl.ops:
            out["wall"] += timed_op(op, pass_no, records)
        return out
    tracer.spans = []
    out["traced_wall"] = 0.0
    for k, op in enumerate(wl.ops):
        for traced in (False, True) if (k + pass_no) % 2 == 0 else (True, False):
            dt = timed_op(op, pass_no, records, tracer if traced else None)
            out["traced_wall" if traced else "wall"] += dt
    out["spans"] = tracer.spans
    return out


def measure(wl, seconds: float, tracer=None):
    """Whole passes, at least one, until `seconds` have elapsed."""
    records, passes = [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        passes.append(run_pass(wl, len(passes), records, tracer))
    return records, passes


def check_records(records: list) -> tuple:
    """Check the first result of every op; later repeats must equal it.

    Returns (number of failed op executions, error lines)."""
    first, verdict, errors = {}, {}, []
    for rec in records:
        if rec.error is not None or rec.op.id in first:
            continue
        first[rec.op.id] = rec.result
        try:
            errs = rec.op.check(rec.result)
        except Exception as exc:
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        verdict[rec.op.id] = errs
        errors += [f"{rec.op.id}: {e}" for e in errs]
    failed = 0
    for rec in records:
        if rec.error is not None:
            errors.append(f"{rec.op.id} (pass {rec.pass_no}): {rec.error}")
            failed += 1
        elif rec.result != first[rec.op.id]:
            errors.append(f"{rec.op.id} (pass {rec.pass_no}): result differs from its first run")
            failed += 1
        elif verdict[rec.op.id]:
            failed += 1
    return failed, errors


def percentile(xs: list, p: float) -> tuple:
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def end_to_end(records, passes, failed: int, setup: list, rss_kb: int, tail_p: float) -> tuple:
    lat = [r.dt for r in records]
    tail, beyond = percentile(lat, tail_p)
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "ops_per_s": ((len(records) - failed) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "ok_frac": ((len(records) - failed) / len(records), "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {"tail_percentile": tail_p, "tail_samples_beyond": beyond, "op_samples": len(lat),
            "pass_wall_s": [round(p["wall"], 4) for p in passes], "setup_samples_s": setup}
    return metrics, info


def per_kind_medians(records) -> dict:
    """Median latency in ms per op kind (the op id without a trailing prior index)."""
    by_kind = {}
    for r in records:
        head, _, tail = r.op.id.rpartition(":")
        by_kind.setdefault(head if tail.isdigit() else r.op.id, []).append(r.dt)
    return {k: round(1e3 * statistics.median(v), 3) for k, v in sorted(by_kind.items())}


def _openblas() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        import ctypes
        import glob

        for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so")):
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            info["threads"] = get()
    except (OSError, AttributeError):
        pass
    return info


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, wl) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": wl.sizes,
        "load": "closed loop, one caller, one process",
    }


def emit(key: str, value) -> None:
    print(json.dumps({key: value}, sort_keys=True))


def write_spans(args, records: list) -> Path:
    out = ROOT / ".perfbench-traces" / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return out


def run(args, work: Path) -> int:
    wl, setup_first = timed_setup(args, work)
    emit("env", environment(args, wl))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    else:
        setup = setup_samples(args, setup_first)
    t0 = time.perf_counter()
    records, passes = measure(wl, args.seconds, tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the oracles load scipy
    failed, errors = check_records(records)

    if tracer is None:
        metrics, info = end_to_end(records, passes, failed, setup, rss_kb, wl.tail_percentile)
        emit("run", info)
    else:
        metrics, drift = tracing.combine([tracing.layer_metrics(p["spans"]) for p in passes])
        errors += drift
        overhead = statistics.median(p["traced_wall"] - p["wall"] for p in passes)
        u_wall = statistics.median(p["wall"] for p in passes)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / u_wall, "frac")
        spans = tracing.span_records([s for p in passes for s in p["spans"]], t0)
        path = write_spans(args, spans)
        emit("run", {"passes": len(passes), "untraced_wall_s": u_wall,
                     "traced_wall_s": statistics.median(p["traced_wall"] for p in passes),
                     "spans": len(spans), "span_file": str(path.relative_to(ROOT))})
    emit("op_median_ms", per_kind_medians(records))
    for line in errors:
        emit("error", line)
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustmd" / "__init__.py").is_file():
        print(f"perfbench: no robustmd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_probe:
            _, dt = timed_setup(args, work)
            print(json.dumps({"setup_s": dt}))
            return 0
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
