"""Layered benchmark: end-to-end and per-layer metrics of the paper's workloads.

Run from the repository root:

    python3 layerbench/run.py --seed N [--runs K] [--seconds S] [--smoke]
                              [--out FILE.json] [--spans FILE.jsonl]
        Every workload, one after another, each in fresh subprocesses: an
        untraced run gives the end-to-end metrics, a traced run the
        per-layer metrics and the tracing overhead.  ``--runs K`` repeats
        this with seeds N, N+1, ..., N+K-1.

    python3 layerbench/run.py --workload NAME --seed N [--seconds S]
                              [--trace 0|1] [--smoke] [--out FILE.json]
                              [--spans FILE.jsonl]
        One workload in this process.  The last line of output is one JSON
        object: ``correct``, ``attempted``, ``failed`` and ``metrics``
        (the end-to-end metrics of ``BENCHMARK.json``, or its per-layer
        metrics with ``--trace 1``).

    python3 layerbench/run.py compare A.json B.json [C.json ...]
        Compares result files written with ``--out`` (see compare.py).

Each run is a closed loop: one client, one op at a time.  A few warm-up
ops run and are checked first but are not timed.  The timed part repeats
whole passes over the workload's ops, each on inputs built afresh from
the seed, until ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``) have passed; ``--smoke`` makes it one pass over about
5% of the ops.  Every timing is CPU time adjusted for the machine's speed
at the moment (see speed.py).  An op's latency is the median of its
adjusted times over the passes, and ``setup_s`` is the median adjusted
time of the builds.  Every op's output is
checked against reference results that a separate process computes
before the timed run (cached under ``.benchmarks/layered/``); a wrong or
failed op counts in ``failed`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sqlite3
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

from compare import number
from speed import clock_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".benchmarks" / "layered"

#: Tracebacks printed per run before further failures are only counted.
MAX_REPORTED_ERRORS = 3
REFERENCE_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 900


def require_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (ahead of any installed
    copy), or exit when the checkout has none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"layerbench: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _code_hash() -> str:
    """Digest of the program and benchmark sources, so cached references
    never outlive the code that defines their inputs."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def load_reference(workload, seed: int, pool: int):
    if not workload.needs_reference:
        return None
    path = CACHE / f"ref-{workload.name}-seed{seed}-pool{pool}-{_code_hash()}.json"
    if not path.is_file():
        CACHE.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "reference",
                "--workload", workload.name, "--seed", str(seed),
                "--pool", str(pool), "--out", str(path),
            ],
            check=True,
            timeout=REFERENCE_TIMEOUT_S,
        )
    return json.loads(path.read_text())


def write_reference(name: str, seed: int, pool: int, out: str) -> None:
    """Body of the reference subprocess: rebuild the inputs, compute the
    expected results with stdlib sqlite3, write them atomically."""
    require_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, pool)
    tmp = out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(workload.reference(), fh)
    os.replace(tmp, out)


def _attempt(workload, op, tracer, reference, op_id: int):
    """Run and check one op; returns (correct, adjusted op nanoseconds,
    error text)."""
    tracer.begin_op(op_id)
    start = clock_ns()
    tracer.speed.start()
    try:
        out = workload.run(op, tracer)
        error = None
    except Exception:
        error = traceback.format_exc()
    end = clock_ns()
    adjusted = tracer.speed.stop()
    tracer.end_op(start, end, adjusted)
    if error is None:
        try:
            if workload.check(op, out, reference):
                return True, adjusted, None
            error = f"op {op[0]}: output differs from the reference\n"
        except Exception:
            error = traceback.format_exc()
    return False, adjusted, error


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    smoke: bool = False,
    trace: bool = False,
    spans: Optional[str] = None,
) -> dict:
    """Set up, warm up and measure one workload; returns its report.

    The timed part runs whole passes over the workload's ops until
    *seconds* have passed (at least one pass), so every run sees the same
    mix of ops.  Every timing is adjusted for the machine's speed while it
    ran (see speed.py), and an op's latency is the median of its adjusted
    times over the passes.  Throughput and percentiles are taken over
    these latencies.

    Every pass runs on inputs built afresh from the seed, so no pass
    finds state that an earlier one left in them.  ``setup_s`` is the
    median adjusted time of these builds.
    """
    require_program()
    from spans import NoTrace, Tracer, per_layer
    from speed import Speedometer
    from workloads import WORKLOADS, smoke_pool

    cls = WORKLOADS[name]
    pool = smoke_pool(cls) if smoke else cls.pool
    speed = Speedometer()
    setup_s: List[float] = []
    infos = []

    def build():
        gc.collect()
        fresh = cls()
        speed.restart()
        start = clock_ns()
        speed.start()
        fresh.setup(seed, pool)
        ns = clock_ns() - start
        adjusted = speed.stop()
        scale = adjusted / ns
        setup_s.append(adjusted / 1e9)
        infos.append(
            {
                key: value * scale if key.endswith("_s") else value
                for key, value in fresh.info.items()
            }
        )
        return fresh

    workload = build()
    reference = load_reference(workload, seed, pool)

    attempted = failed = 0

    def record(ok: bool, error: Optional[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            if failed < MAX_REPORTED_ERRORS:
                sys.stderr.write(f"layerbench: {name}: {error}")
            failed += 1

    for k, op in enumerate(workload.ops[: workload.warmup]):
        ok, _ns, error = _attempt(workload, op, NoTrace(speed), reference, -1 - k)
        record(ok, error)

    tracer = Tracer(speed) if trace else NoTrace(speed)
    adjusted_ns: List[List[float]] = [[] for _ in range(pool)]
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        if passes:
            workload = None  # free the previous inputs before building the next
            workload = build()
        for i, op in enumerate(workload.ops):
            ok, ns, error = _attempt(workload, op, tracer, reference, passes * pool + i)
            adjusted_ns[i].append(ns)
            record(ok, error)
        passes += 1

    lat_ms = [statistics.median(times) / 1e6 for times in adjusted_ns]
    p90 = (
        statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
        if len(lat_ms) > 1
        else lat_ms[0]
    )
    report = {
        "workload": name,
        "seed": seed,
        "pool": pool,
        "traced": trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "passes": passes,
        "latency_samples": pool,
        "end_to_end": {
            "throughput_ops_s": pool / (sum(lat_ms) / 1e3),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": p90,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if trace:
        setup_info = {
            key: statistics.median(info[key] for info in infos) for key in infos[0]
        }
        report["per_layer"] = per_layer(tracer.spans, setup_info)
        if spans:
            tracer.write(spans, name)
    return report


def _metric_lines(values: dict, section: List[dict], base: Optional[float] = None):
    for metric in section:
        name = metric["name"]
        line = f"  {name:<34} {number(values[name]):>16} {metric['unit']}"
        if base and (name.endswith(".busy_ms") or name == "bench.self_ms"):
            line += f"  ({100 * values[name] / base:.1f}% of op time)"
        yield line


def contract_line(report: dict, spec: dict) -> str:
    section = spec["per_layer"] if report["traced"] else spec["end_to_end"]
    values = report["per_layer"] if report["traced"] else report["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
    }
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def main_workload(args, spec: dict) -> int:
    report = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        smoke=args.smoke,
        trace=bool(args.trace),
        spans=args.spans,
    )
    print(
        f"{args.workload} seed {args.seed}: {report['latency_samples']} ops, "
        f"each timed in {report['passes']} passes; {report['attempted']} checked, "
        f"{report['failed']} failed (error_rate {report['error_rate']:g})"
    )
    if report["traced"]:
        base = report["per_layer"]["bench.op_ms"]
        lines = _metric_lines(report["per_layer"], spec["per_layer"], base)
    else:
        lines = _metric_lines(report["end_to_end"], spec["end_to_end"])
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(contract_line(report, spec))
    return 0 if report["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Whole suite: each workload untraced, then traced, in fresh subprocesses
# ---------------------------------------------------------------------------


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
    }


def _child(name: str, seed: int, args, traced: bool, workdir: Path) -> Optional[dict]:
    out = workdir / f"{name}-{'traced' if traced else 'plain'}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced and args.spans:
        cmd += ["--spans", str(workdir / f"{name}.jsonl")]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text()) if out.is_file() else None


def print_workload(name: str, seed: int, result: dict, spec: dict) -> None:
    print(
        f"\n== {name}: seed {seed}, {result['latency_samples']} ops, each timed in "
        f"{result['passes']} passes; {result['attempted']} checked, "
        f"error_rate {result['error_rate']:g}"
    )
    print("end to end (untraced):")
    print("\n".join(_metric_lines(result["end_to_end"], spec["end_to_end"])))
    print(f"per layer (traced; tracing overhead {result['tracing_overhead_pct']:.1f}%):")
    base = result["per_layer"]["bench.op_ms"]
    print("\n".join(_metric_lines(result["per_layer"], spec["per_layer"], base)))


def main_suite(args, spec: dict) -> int:
    require_program()
    workdir = CACHE / "suite"
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = list(range(args.seed, args.seed + args.runs))
    runs = []
    healthy = True
    for seed in seeds:
        results = {}
        for workload in spec["workloads"]:
            name = workload["name"]
            plain = _child(name, seed, args, False, workdir)
            traced = _child(name, seed, args, True, workdir)
            if plain is None or traced is None:
                print(f"layerbench: {name} did not report", file=sys.stderr)
                healthy = False
                continue
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            healthy = healthy and failed == 0
            plain_tput = plain["end_to_end"]["throughput_ops_s"]
            traced_tput = traced["end_to_end"]["throughput_ops_s"]
            results[name] = {
                "pool": plain["pool"],
                "passes": plain["passes"],
                "attempted": attempted,
                "failed": failed,
                "error_rate": failed / attempted,
                "latency_samples": plain["latency_samples"],
                "end_to_end": plain["end_to_end"],
                "per_layer": traced["per_layer"],
                "tracing_overhead_pct": 100 * (1 - traced_tput / plain_tput),
            }
            print_workload(name, seed, results[name], spec)
        runs.append(results)
    if args.out:
        payload = {
            "benchmark": "layerbench",
            "seeds": seeds,
            "mode": "smoke" if args.smoke else f"{args.seconds:g}s",
            "env": environment(),
            "runs": runs,
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    if args.spans:
        with open(args.spans, "w") as fh:
            for workload in spec["workloads"]:
                part = workdir / f"{workload['name']}.jsonl"
                if part.is_file():
                    fh.write(part.read_text())
    return 0 if healthy else 1


def parse_args(argv: List[str]):
    parser = argparse.ArgumentParser(
        prog="layerbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--seconds", type=float,
        help="measure whole passes for this long (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: 1 records spans and reports per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one pass over about 5%% of the ops"
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="suite runs, with consecutive seeds"
    )
    parser.add_argument("--out", help="write the detailed results as JSON")
    parser.add_argument("--spans", help="write the traced run's spans as JSON lines")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], load_spec())
    if argv[:1] == ["reference"]:
        parser = argparse.ArgumentParser(prog="layerbench/run.py reference")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--pool", type=int, required=True)
        parser.add_argument("--out", required=True)
        ref = parser.parse_args(argv[1:])
        write_reference(ref.workload, ref.seed, ref.pool, ref.out)
        return 0
    args = parse_args(argv)
    spec = load_spec()
    if args.smoke:
        args.seconds = 0.0
    elif args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return main_suite(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"layerbench: unknown workload {args.workload!r}; have {names}")
    return main_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
