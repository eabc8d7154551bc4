"""One benchmark run inside a fresh Python process.

``run.py`` starts this file; it is not meant to be run by hand.  It
imports the package from the checkout's ``src``, builds the workload's
inputs, and runs a closed loop: one client issues the next op when the
previous one returns, until ``--seconds`` of op time have passed and
the workload's minimum op count has run.  Op and set-up times are taken
on ``clock.RescaledClock``, recorded beside CPU and wall seconds.  ``--setup-only`` exits
once the inputs are ready.  ``--trace 1`` follows each untraced op with
a traced op of the same input.  The last line on stdout is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from clock import RescaledClock
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"


def run_op(workload, key: str, clock, tracer=None) -> dict:
    lo = len(tracer.spans) if tracer else 0
    span = tracer.open("op") if tracer else None
    wall0 = time.perf_counter()
    clock.start()
    out, error = None, None
    try:
        out = workload.op(key)
    except Exception:
        error = traceback.format_exc()
    finally:
        times = clock.stop()
        elapsed = time.perf_counter() - wall0
        if tracer:
            tracer.close(span)
    if error is None:
        try:
            error = workload.check(key, out)
        except Exception:
            error = traceback.format_exc()
    if error is None and elapsed > workload.op_limit_s:
        error = f"op took {elapsed:.1f} s, over the {workload.op_limit_s} s limit"
    op = {"key": key, **times, "wall_s": elapsed, "error": error}
    if tracer:
        op["spans"] = [lo, len(tracer.spans)]
    return op


def closed_loop(workload, seconds: float, clock, tracer=None) -> tuple[list, list]:
    """Untraced ops, and with a tracer a traced op of the same input
    after each one, so warm-up affects both alike."""
    ops: list[dict] = []
    traced: list[dict] = []
    elapsed = 0.0
    while len(ops) < workload.min_ops or elapsed < seconds:
        key = workload.keys[len(ops) % len(workload.keys)]
        ops.append(run_op(workload, key, clock))
        elapsed += ops[-1]["s"]
        if tracer:
            tracer.install()
            traced.append(run_op(workload, key, clock, tracer))
            tracer.uninstall()
            elapsed += traced[-1]["s"]
    return ops, traced


def _rescale(metrics: dict, scale: float) -> None:
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] *= scale


def layer_metrics(
    tracer, workload_name: str, setup_hi: int, setup_scale: float, ops, traced
) -> dict:
    """Per-layer metrics from the spans.  Each op's span times are scaled
    so that its op span equals the op's clock time; set-up spans by the
    speed the clock sampled during set-up."""
    spans = tracer.spans
    per_op = [tracing.range_metrics(spans, *op["spans"]) for op in traced]
    setup = tracing.range_metrics(spans, 0, setup_hi)
    _rescale(setup, setup_scale)
    solve_shares = []
    for op, metrics in zip(traced, per_op):
        op_span = spans[op["spans"][0]]
        op_wall = op_span[tracing.END] - op_span[tracing.START]
        solve_shares.append(
            (metrics["coloring.solve_s"] + metrics["coloring.split_s"]) / op_wall
        )
        _rescale(metrics, op["s"] / op_wall)
    layers = tracing.mean_metrics(per_op)
    for metric in ("gadgets.paste_s", "gadgets.build_s"):
        layers[metric] = setup[metric]
    layers["canon.setup_digest_s"] = setup["canon.digest_s"]

    traced_p50 = statistics.median(op["s"] for op in traced)
    layers["trace.op_s"] = traced_p50
    layers["trace.overhead_s"] = traced_p50 - statistics.median(op["s"] for op in ops)
    layers["trace.spans_per_op"] = statistics.fmean(
        op["spans"][1] - op["spans"][0] for op in traced
    )
    layers["coloring.solve_share"] = statistics.fmean(solve_shares)

    seen = {"set-up": tracing.fingerprint(setup)}
    for op, metrics in zip(traced, per_op):
        seen[op["key"]] = tracing.fingerprint(metrics)
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload_name, {})
    mismatched = sorted(key for key, fp in seen.items() if recorded.get(key) != fp)
    layers["fingerprint.mismatches"] = len(mismatched)
    return {"layers": layers, "fingerprints": seen, "mismatched": mismatched}


def main() -> int:
    clock = RescaledClock()
    clock.start(from_process_start=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import steinberg

    package = Path(steinberg.__file__).resolve().parent
    if package != (ROOT / "src" / "steinberg").resolve():
        raise SystemExit(f"imported steinberg from {package}, not from this checkout")

    scratch = Path(tempfile.mkdtemp(dir=args.scratch))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, scratch)
    setup = clock.stop()
    result: dict = {"ready_at": time.monotonic(), "setup": setup}
    if tracer:
        tracer.uninstall()
        setup_hi = len(tracer.spans)

    if not args.setup_only:
        ops, traced = closed_loop(workload, args.seconds, clock, tracer)
        result["ops"] = ops
        if tracer:
            result["traced_ops"] = traced
            result.update(
                layer_metrics(tracer, args.workload, setup_hi, setup["scale"], ops, traced)
            )
            result["spans"] = tracer.spans
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(scratch)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
