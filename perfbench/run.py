"""The steinberg benchmark: one command, four workloads, every verdict
checked against its known answer.

    python3 perfbench/run.py --workload verify-final --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports the package from that
checkout's ``src`` and needs nothing outside the standard library.  Each
run starts fresh processes (``worker.py``), single-threaded with
``jobs=1``.  Set-up is timed from process start until the first op is
ready, in ``SETUP_SAMPLES`` processes; the median is reported.  Then one
process runs the closed loop and reports op times and peak memory.
Times are CPU seconds rescaled to a fixed host speed (see ``clock.py``);
wall seconds are printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every op returned its known answer.  Each run's full record
(environment, op times, spans) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import BASELINE_FACTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SCRATCH_DIR = ROOT / ".bench_tmp"

SETUP_SAMPLES = 5
# A run must end within 180 s; the worker is killed past this.
RUN_LIMIT_S = 170.0


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "networkx": metadata.version("networkx"),
    }


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker and return its result, with ``setup_wall_s`` added:
    wall seconds from spawn until its inputs were ready."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scratch", str(SCRATCH_DIR), *extra,
    ]
    env = dict(os.environ, TMPDIR=str(SCRATCH_DIR), PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready_at"] - started
    return result


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least 10 samples beyond it, as
    (op time, percentile); None for runs of fewer than 11 ops."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100 * (n - 10) / n


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    if not args.trace:
        setups = [
            spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)
        ]
    result = spawn(args, ["--trace", str(args.trace)], deadline)
    setups.append(result)

    ops = result["ops"] + result.get("traced_ops", [])
    failures = [op for op in ops if op["error"]]
    times = [op["s"] for op in result["ops"]]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "op_count": len(result["ops"]),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [(op["key"], op["error"]) for op in failures],
    }
    if args.trace:
        values = result["layers"]
        summary["fingerprint_mismatches"] = result["mismatched"]
        summary["fingerprints"] = result["fingerprints"]
    else:
        values = {
            "setup_s": statistics.median(r["setup"]["s"] for r in setups),
            "op_s.p50": statistics.median(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary["setup_samples"] = [dict(r["setup"], wall_s=r["setup_wall_s"]) for r in setups]
        summary["wall"] = {
            "setup_s": statistics.median(r["setup_wall_s"] for r in setups),
            "op_s.p50": statistics.median(op["wall_s"] for op in result["ops"]),
        }
        t = tail(times)
        summary["op_s.tail"] = None if t is None else {
            "value": t[0], "unit": "s", "percentile": t[1], "samples_beyond": 10,
        }
        summary["failed_share"] = len(failures) / len(ops)
    # the metrics BENCHMARK.json declares, in its order and units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    summary["ops"] = [
        dict(op, traced=i >= len(result["ops"])) for i, op in enumerate(ops)
    ]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(summary, baseline_facts=BASELINE_FACTS, spans=result.get("spans"))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record) + "\n")
    return summary


def print_summary(s: dict) -> None:
    print(f"env: {json.dumps(s['env'], sort_keys=True)}")
    print(
        f"workload {s['workload']}  seed {s['seed']}  seconds {s['seconds']}"
        f"  trace {s['trace']}  ops {s['op_count']}  attempted {s['attempted']}"
        f"  failed {s['failed']}"
    )
    for key, error in s["failures"]:
        print(f"  FAILED op {key}: {error.strip().splitlines()[-1]}")
    for name, m in s["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if not s["trace"]:
        t = s["op_s.tail"]
        if t is None:
            print(f"  {'op_s.tail':<28} n/a (needs at least 11 ops, run had {s['op_count']})")
        else:
            print(
                f"  {'op_s.tail':<28} {t['value']:.6g} s (p{t['percentile']:.4g},"
                f" {t['samples_beyond']} samples beyond, {s['op_count']} ops)"
            )
        print(f"  {'failed_share':<28} {s['failed_share']:.6g} ({s['failed']}/{s['attempted']})")
        for name, value in s["wall"].items():
            print(f"  {name + ' (wall)':<28} {value:.6g} s")
    elif s["fingerprint_mismatches"]:
        print(
            "  FINGERPRINT MISMATCH: counts differ from perfbench/fingerprints.json"
            f" for {', '.join(s['fingerprint_mismatches'])}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "steinberg" / "__init__.py").is_file():
        print(f"error: no steinberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        args.workload = name
        try:
            s = run_one(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name} run did not complete: {exc}", file=sys.stderr)
            ok = False
            continue
        print_summary(s)
        correct = s["failed"] == 0
        ok = ok and correct
        print(json.dumps({
            "correct": correct,
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": s["metrics"],
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
