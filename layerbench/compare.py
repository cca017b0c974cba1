"""Compare result files of the layered benchmark.

    python3 layerbench/run.py compare BASE.json NEW.json [MORE.json ...]

Each file is written by ``run.py --out`` and holds one or more runs of the
suite (``--runs N``, one seed each).  Every file after the first is
compared with the first.  One row per (workload, metric) shows each
side's median, quartiles and spread (interquartile distance as a share of
the median), and the fraction of paired runs (run i of one side against
run i of the other) that the new side wins; ties count for neither side.
End-to-end metrics get a verdict against the bound ``BENCHMARK.json``
fixes for them:

* ``better``: over at least ten pairs, the new side wins at least 90% of
  them and the medians differ by more than the base side's interquartile
  distance;
* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unresolved``: either side's interquartile distance exceeds the bound,
  so "no worse" cannot be told apart from noise, and the new side does not
  beat the base in every run;
* ``no worse``: otherwise.

Per-layer metrics have no bound and get no verdict.  A count metric (unit
``count`` or ``count/op``) that differs between run i of one side and run
i of the other, when both sides ran the same seeds, is flagged: runs
repeat whole passes over a seed's ops, so such counts repeat exactly for
a seed unless the program's work changed.  The exit code is 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Tuple

#: Paired runs needed before a gain may be claimed.
MIN_PAIRS_FOR_GAIN = 10


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, with the default
    (exclusive) method of ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _relative(width: float, median: float) -> float:
    return width / abs(median) if median else (0.0 if not width else float("inf"))


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return _relative(q3 - q1, med)


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = statistics.median(new)
    gain = sign * (n_med - b_med)
    if (
        min(len(base), len(new)) >= MIN_PAIRS_FOR_GAIN
        and win_fraction(base, new, better) >= 0.9
        and gain > b_q3 - b_q1
    ):
        return "better"
    if -gain > bound * abs(b_med):
        return "worse"
    beats_all = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not beats_all:
        return "unresolved"
    return "no worse"


def win_fraction(base: List[float], new: List[float], better: str) -> float:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new))
    return sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)


def number(value: float) -> str:
    """Whole numbers in full, others to five significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.5g}"


def _cell(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{number(med)} [{number(q1)}, {number(q3)}] {100 * spread(values):.1f}%"


def compare(base: dict, new: dict, spec: dict) -> Tuple[List[str], bool]:
    """Table rows comparing two result payloads, and whether any is worse."""
    rows = []
    any_worse = False
    pairs = min(len(base["seeds"]), len(new["seeds"]))
    same_seeds = base["seeds"][:pairs] == new["seeds"][:pairs]
    names = [w["name"] for w in spec["workloads"]]
    sections = (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"]))
    for workload in names:
        base_runs = [run[workload] for run in base["runs"] if workload in run]
        new_runs = [run[workload] for run in new["runs"] if workload in run]
        if not base_runs or not new_runs:
            continue
        for section, metrics in sections:
            for metric in metrics:
                name = metric["name"]
                a = [run[section][name] for run in base_runs]
                b = [run[section][name] for run in new_runs]
                if not any(a) and not any(b):
                    continue  # layer not exercised by this workload
                if "bound" in metric:
                    judged = verdict(a, b, metric["better"], metric["bound"])
                    any_worse = any_worse or judged == "worse"
                else:
                    judged = "-"
                if (
                    same_seeds
                    and metric["unit"].startswith("count")
                    and any(x != y for x, y in zip(a, b))
                ):
                    judged += "  COUNT DIFFERS"
                rows.append(
                    f"{workload:<14} {name:<30} {metric['unit']:<8} "
                    f"{_cell(a):<42} {_cell(b):<42} "
                    f"{win_fraction(a, b, metric['better']):>4.0%}  {judged}"
                )
    return rows, any_worse


def main(argv: List[str], spec: dict) -> int:
    if len(argv) < 2:
        raise SystemExit("usage: run.py compare BASE.json NEW.json [MORE.json ...]")
    payloads = []
    for path in argv:
        with open(path) as fh:
            payloads.append(json.load(fh))
    base = payloads[0]
    status = 0
    for path, new in zip(argv[1:], payloads[1:]):
        print(
            f"\n{argv[0]} (seeds {base['seeds']}) vs {path} (seeds {new['seeds']}); "
            "median [q1, q3] (q3-q1)/median, new-side wins over paired runs, verdict"
        )
        rows, any_worse = compare(base, new, spec)
        print("\n".join(rows))
        if any_worse:
            status = 1
    return status
