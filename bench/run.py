"""bbmlab benchmark: one closed-loop workload, checked against oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; bbmlab is imported from ``src/`` next to this
directory.  Workloads (see workloads.py): probe-ladder, energy-1d,
energy-nd, cli-suite.

The loop is closed and single-threaded: each op starts when the previous
one returns, and whole cycles run until ``--seconds`` have passed.  After
the loop every op's value is checked against an oracle.  ops_per_s and
op_p50_s scale each op's latency to the host's fast state with the
reference computation in calibrate.py, timed between ops (see
scaled_latencies), and count each op at the median of its kind; the
plain figures, set-up times included, are on the ``extra`` line.

``--trace 0`` reports the end-to-end metrics; set-up time is the median
of SETUP_RUNS fresh processes started at even intervals during the loop,
whose time does not count against ``--seconds``, scaled like the ops.  ``--trace 1`` runs a
fixed number of cycles, each once plain and once more with span wrappers
installed on every public bbmlab function, asserts the traced values are
bit-identical, and reports per-layer metrics and the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  ``failed`` counts the ops that raised, returned a non-finite
value or missed their tolerance without being a documented defect of this
commit (Op.known_defect); any such op also makes ``correct`` false.  Every
miss, the documented ones included, counts against pass_ratio, so the
known defects stay visible there and in fail_ratio.  Lines before it give
the run metadata, workload properties and the metrics not in that object
(fail_ratio, op_p90_s, sample counts).  Spans and the full result, with
the timeline of op and reference latencies, are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 4
WORKLOAD_NAMES = ("probe-ladder", "energy-1d", "energy-nd", "cli-suite")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s",
                    "max_rel_err": "1", "pass_ratio": "1", "peak_rss_mb": "MB"}
REF_EVERY_S = 0.1   # ~180 reference samples in an 18 s run, ~5% of its time
P90_MIN_OPS = 100   # at least 10 samples beyond the 90th percentile
# The traced run runs a fixed number of cycles, so its counts repeat
# exactly for a seed; each takes a few seconds untraced on 2 cores.
TRACE_CYCLES = {"probe-ladder": 30, "energy-1d": 6, "energy-nd": 4, "cli-suite": 2}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must lie in (0, 60]")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def metadata(args) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def measure_setup() -> tuple[float, float]:
    """Set-up seconds of one fresh process: (plain, scaled to the host's
    fast state like an op's latency, by references timed just before and
    just after it)."""
    before = time_reference()
    proc = subprocess.run([sys.executable, str(HERE / "setup_child.py"), str(SRC)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    after = time_reference()
    if proc.returncode != 0:
        die(f"set-up process failed:\n{proc.stderr}")
    plain = float(proc.stdout.split()[-1])
    return plain, plain * 2.0 * REFERENCE_S / (before + after)


def execute(op, tracer=None, index=0):
    if tracer is not None:
        tracer.op_id = index
    t0 = time.perf_counter()
    try:
        value, error = op.run(), None
    except Exception as exc:   # an op that raises is a failed op, not a crash
        value = None
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return value, time.perf_counter() - t0, error


def closed_loop(make_cycle, seed: int, seconds: float, setup_runs: int):
    """Whole cycles until `seconds` of wall time have passed.

    Between ops it times the reference computation every REF_EVERY_S and
    starts the `setup_runs` set-up processes, spread evenly over the run;
    the time they take is not counted against `seconds`.

    Returns the ops, their (value, latency, error) results, the number of
    cycles run, the (start, seconds) reference samples, the (plain, scaled)
    set-up samples and each op's start time."""
    import numpy as np
    ops, results, starts, setups = [], [], [], []
    refs = [(time.perf_counter(), time_reference())]
    t_start = t_ref = time.perf_counter()
    paused = 0.0
    c = 0

    def elapsed():
        return time.perf_counter() - t_start - paused
    while elapsed() < seconds:
        for op in make_cycle(np.random.default_rng([seed, c]), c):
            ops.append(op)
            starts.append(time.perf_counter())
            results.append(execute(op))
            if time.perf_counter() - t_ref >= REF_EVERY_S:
                t_ref = time.perf_counter()
                refs.append((t_ref, time_reference()))
            if len(setups) < setup_runs and \
                    elapsed() >= seconds * len(setups) / setup_runs:
                t0 = time.perf_counter()
                setups.append(measure_setup())
                paused += time.perf_counter() - t0
        c += 1
    while len(setups) < setup_runs:
        setups.append(measure_setup())
    return ops, results, c, refs, setups, starts


def traced_cycles(make_cycle, seed: int, cycles: int, tracer):
    """`cycles` whole cycles, each run plain and then again traced.

    Alternating per cycle lets both runs see the same host state, so the
    difference of their times is the tracing overhead, not a change in
    the host's speed (see calibrate.py).  Returns the ops and their plain
    and traced (value, latency, error) results."""
    import numpy as np
    ops, results, traced = [], [], []
    for c in range(cycles):
        batch = list(make_cycle(np.random.default_rng([seed, c]), c))
        results += [execute(op) for op in batch]
        tracer.install()
        try:
            traced += [execute(op, tracer, len(ops) + i) for i, op in enumerate(batch)]
        finally:
            tracer.uninstall()
        ops += batch
    return ops, results, traced


def scaled_latencies(starts, lat, refs) -> list[float]:
    """Each op's latency at the host's fast-state speed.

    On a shared host this process runs in a fast or a slow state (see
    calibrate.py), so plain latencies move with the share of the run spent
    slow: over eight runs of each workload on 2 shared cores, the spread
    (IQR / median) of ops_per_s and op_p50_s was up to 0.33 from plain
    per-kind medians and up to 0.28 from each kind's fastest latency.
    Each latency is scaled by REFERENCE_S / (the mean of the reference
    samples taken just before and just after the op), and the metrics use
    the median of each kind's scaled latencies."""
    ref_t = [t for t, _ in refs]
    out = []
    for t0, t in zip(starts, lat):
        before = max(bisect.bisect_left(ref_t, t0) - 1, 0)
        after = min(bisect.bisect_left(ref_t, t0 + t), len(refs) - 1)
        out.append(t * 2.0 * REFERENCE_S / (refs[before][1] + refs[after][1]))
    return out


def median_of_kind(ops, values) -> list[float]:
    """Each op's value replaced by the median of its kind's."""
    by_kind: dict[str, list[float]] = {}
    for op, v in zip(ops, values):
        by_kind.setdefault(op.kind, []).append(v)
    med = {kind: statistics.median(vs) for kind, vs in by_kind.items()}
    return [med[op.kind] for op in ops]


def same_bits(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def check_ops(ops, results):
    """Oracle checks: (failed, unexpected, rel_errs, per-kind failures)."""
    failed = unexpected = 0
    rel_errs = []
    by_kind: dict[str, list[int]] = {}
    for i, (op, (value, _, error)) in enumerate(zip(ops, results)):
        tally = by_kind.setdefault(op.kind, [0, 0])
        tally[1] += 1
        if error is None and isinstance(value, float) and not math.isfinite(value):
            error = f"non-finite value {value!r}"
        if error is None:
            chk = op.check(value)
            if chk.rel_err is not None:
                rel_errs.append(chk.rel_err)
            if not chk.ok:
                error = f"missed tolerance {chk.detail}".strip()
        if error is None and op.twin == 1 and not same_bits(results[i - 1][0], value):
            error = "rerun is not byte-identical"
        if error is not None:
            failed += 1
            tally[0] += 1
            if not op.known_defect:
                unexpected += 1
                print(f"bench: op {i} ({op.kind}) failed: {error}", file=sys.stderr)
    return failed, unexpected, rel_errs, by_kind


def properties(ops) -> dict:
    """How much of the workload each fast path could touch."""
    n = len(ops)
    pts = band = 0
    for op in ops:
        if op.band is not None:
            a, b = op.band()
            pts += a
            band += b
    return {"ops": n,
            "binary_field_share": sum(op.binary for op in ops) / n,
            "p2_share": sum(op.p == 2.0 for op in ops) / n,
            "mollifier_kinds": sorted({op.mollifier for op in ops if op.mollifier}),
            "x_points": pts,
            "x_points_near_jump_share": band / pts if pts else None}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "bbmlab" / "__init__.py").is_file():
        die(f"no bbmlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import workloads
    from tracer import Tracer, per_layer_units

    if args.workload == "cli-suite":
        suite = workloads.CliSuite(OUT / "cli")
        suite.reset()
        make_cycle = suite
    else:
        make_cycle = workloads.WORKLOADS[args.workload]
    # warm-up: one op of each kind, from its own stream, fills lazy caches
    import numpy as np
    warmed = set()
    for op in make_cycle(np.random.default_rng([args.seed, 1 << 30]), 0):
        if op.kind not in warmed:
            warmed.add(op.kind)
            execute(op)

    t_loop = time.perf_counter()
    if args.trace == 0:
        ops, results, cycles, refs, setups, starts = closed_loop(
            make_cycle, args.seed, args.seconds, SETUP_RUNS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
    else:
        tracer = Tracer()
        cycles = TRACE_CYCLES[args.workload]
        ops, results, traced = traced_cycles(make_cycle, args.seed, cycles, tracer)

    t_check = time.perf_counter()
    failed, unexpected, rel_errs, by_kind = check_ops(ops, results)
    t_done = time.perf_counter()
    lat = [r[1] for r in results]
    meta = metadata(args)
    props = properties(ops)
    extra = {"fail_ratio": failed / len(ops),
             "failed_known_defect": failed - unexpected,
             "latency_samples": len(lat),
             "cycles": cycles,
             "rel_err_samples": len(rel_errs),
             "failures_by_kind": {k: v for k, v in by_kind.items() if v[0]},
             "phases_s": {"import_and_warmup": t_loop - t_start,
                          "loop": t_check - t_loop, "check": t_done - t_check}}
    if len(lat) >= P90_MIN_OPS:
        extra["op_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    correct = unexpected == 0 and bool(rel_errs)

    if args.trace == 0:
        scaled = median_of_kind(ops, scaled_latencies(starts, lat, refs))
        timeline = {"kind": [op.kind for op in ops], "start": starts, "lat": lat,
                    "ref_t": [t for t, _ in refs], "ref": [r for _, r in refs]}
        refs = [r for _, r in refs]
        extra["kind_median_s"] = {op.kind: t for op, t in zip(ops, scaled)}
        extra["plain"] = {"ops_per_s": len(lat) / sum(lat),
                          "op_p50_s": statistics.median(lat)}
        extra["reference"] = {"samples": len(refs), "min_s": min(refs),
                              "median_s": statistics.median(refs)}
        extra["setup_samples_s"] = [t for t, _ in setups]
        metrics = {
            "setup_s": statistics.median(t for _, t in setups),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "max_rel_err": max(rel_errs) if rel_errs else math.nan,
            "pass_ratio": 1.0 - failed / len(ops),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        mismatch = [i for i, (a, b) in enumerate(zip(results, traced))
                    if not same_bits(a[0], b[0])]
        if mismatch:
            correct = False
            print(f"bench: traced values differ from untraced at ops {mismatch[:10]}",
                  file=sys.stderr)
        cli_bytes = sum(len(v) for v, _, _ in traced if isinstance(v, bytes))
        twins = [i for i, op in enumerate(ops) if op.twin == 1]
        identical = (sum(same_bits(traced[i - 1][0], traced[i][0]) for i in twins)
                     / len(twins)) if twins else 0.0
        metrics = tracer.layer_metrics(len(ops), cli_bytes, identical)
        untraced_s = sum(lat)
        traced_s = sum(r[1] for r in traced)
        metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                        "trace.overhead_s": traced_s - untraced_s})
        extra["bit_identical"] = not mismatch
        tracer.write(OUT / f"spans-{args.workload}.npz")
        units = per_layer_units()
    if args.workload == "cli-suite":
        suite.reset()

    result = {"correct": correct, "attempted": len(ops), "failed": unexpected,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    full = {"meta": meta, "properties": props, "extra": extra, **result}
    if args.trace == 0:
        full["timeline"] = timeline
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("properties " + json.dumps(props, sort_keys=True))
    print("extra " + json.dumps(extra, sort_keys=True))
    for k, v in metrics.items():
        print(f"  {k:36s} {v:>16.6g} {units[k]}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
