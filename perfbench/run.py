"""Benchmark of the cutdown package, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its ``src``.
Each iteration of a workload runs in a fresh child process (child.py), one
at a time, and iterations repeat until ``--seconds`` have passed (at least
two).  The seed picks the sequence length L inside a band that keeps the
per-symbol cost comparable; the program receives only n, k, L and mode.

``--trace 0`` reports the end-to-end metrics, medians over iterations,
with times scaled to a reference machine speed (calibration.py).
``--trace 1`` alternates traced and untraced iterations and reports the
per-layer metrics from the traced ones (tracer.py), and writes every span
and aggregate to ``perfbench/out/trace-<workload>-<seed>.json``.

Every iteration checks the program's output; the last line printed is
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs every
workload at tiny sizes in both modes and checks that each metric named in
BENCHMARK.json is emitted with its unit and that no check fails.

Workloads, the layers each stresses and bypasses, and which end-to-end
metric each per-layer metric should move are listed in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from math import comb, gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from calibration import CAL_REF_S, at_ref, calibrate  # noqa: E402
from tracer import CALLS, FIRST, HITS, PEAK_MB, SELF, TOTAL  # noqa: E402

WORKLOADS = ("binary-counter", "binary-successor", "kary-counter", "cli-pipe")
END_TO_END = {
    "setup_s": "s",
    "gen_sym_per_s": "sym/s",
    "verify_sym_per_s": "sym/s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, stat, field of the stat)
PER_LAYER = {
    "cutplan.derive_params.s": ("s", "cutplan.derive_params", TOTAL),
    "counting.count_lyndon.calls": ("count", "counting.count_lyndon", CALLS),
    "counting.count_lyndon.s": ("s", "counting.count_lyndon", TOTAL),
    "ranking.rank_lyndon.calls": ("count", "ranking.rank_lyndon", CALLS),
    "ranking.rank_lyndon.s": ("s", "ranking.rank_lyndon", TOTAL),
    "ranking.first_rank_s": ("s", "ranking.rank_lyndon", FIRST),
    "ranking.listing_words": ("count", None, None),
    "successor.cut_down_successor.calls":
        ("count", "successor.cut_down_successor", CALLS),
    "successor.cut_down_successor.self_s":
        ("s", "successor.cut_down_successor", SELF),
    "successor.kary_step.self_s": ("s", "successor.kary_step", SELF),
    "successor.pcr3_alt.calls": ("count", "successor.pcr3_alt", CALLS),
    "words.is_necklace.calls": ("count", "words.is_necklace", CALLS),
    "words.is_necklace.hit_ratio": ("ratio", "words.is_necklace", HITS),
    "words.period.calls": ("count", "words.period", CALLS),
    "engine.generate.self_s": ("s", "engine.generate", SELF),
    "engine.verify.s": ("s", "engine.verify", TOTAL),
    "engine.verify.peak_alloc_mb": ("MB", "engine.verify", PEAK_MB),
    "cli.generate.self_s": ("s", "cli.generate", SELF),
    "cli.verify.self_s": ("s", "cli.verify", SELF),
    "trace.overhead_ratio": ("ratio", None, None),
}

MARK = 10_000      # setup_s ends when this many symbols reached the caller
CHUNK = 16_384     # symbols per generation-rate sample
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170  # stop starting children after this; exit within 180 s


def _mobius(i: int) -> int:
    result, d = 1, 2
    while d * d <= i:
        if i % d == 0:
            i //= d
            if i % d == 0:
                return 0
            result = -result
        d += 1
    return -result if i > 1 else result


def binary_lyndon(n: int, w: int) -> int:
    """Binary Lyndon words of length n and weight w (Moebius inversion)."""
    g = gcd(n, w)
    return sum(_mobius(d) * comb(n // d, w // d)
               for d in range(1, g + 1) if g % d == 0) // n


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one workload; the same seed gives the same inputs."""
    # cli-pipe draws the same L as binary-counter, so the two differ only
    # by the command line's encoding and decoding.
    key = "binary-counter" if name == "cli-pipe" else name
    rng = random.Random(f"{key}:{seed}")
    cfg = {"kind": "cli" if name == "cli-pipe" else "library",
           "mode": "counter", "k": 2, "prefix": 0,
           "mark": 1000 if tiny else MARK, "chunk": 1024 if tiny else CHUNK}
    if key == "binary-counter":
        n, lo = (14, 12_000) if tiny else (22, 3_500_000)
        cfg.update(n=n, L=lo + rng.randrange(lo // 35))
    elif key == "kary-counter":
        n = 6 if tiny else 10
        cfg.update(k=4, n=n, L=4 ** n - rng.randrange(4 ** n // 64))
    else:
        # Every L here gives h = n.  At n = 28 that is weight cap m = 16, so
        # ranking lists all 1,086,384 Lyndon words of length 28 and weight
        # 16.  Every L in [202e6, 209e6) streams the same first 5e5 symbols;
        # seeds differ only in t, s and the markers.
        n, lo, width, prefix = ((14, 13_000, 1_500, 4000) if tiny
                                else (28, 202_000_000, 7_000_000, 500_000))
        cfg.update(n=n, mode="successor", prefix=prefix,
                   L=lo + rng.randrange(width))
    return cfg


def _run_child(cfg: dict, trace: bool, timeout: float) -> dict:
    """One iteration in a fresh process: its wall time and result (None when
    it failed or timed out; the whole process group is killed then).

    While it waits, this process calibrates on the other core every 10 ms;
    that scales the child's set-up and verify intervals to the reference
    speed."""
    cfg = dict(cfg, trace=trace, out_dir=OUT)
    cfg["t_spawn"] = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(cfg)],
                            stdout=subprocess.PIPE, start_new_session=True)
    probe = []
    while True:
        try:
            out, _ = proc.communicate(timeout=0.01)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() - cfg["t_spawn"] > timeout:
                os.killpg(proc.pid, signal.SIGKILL)
                out, _ = proc.communicate()
                break
            probe.append((time.monotonic(), calibrate()))
    iteration = {"traced": trace, "wall_s": time.monotonic() - cfg["t_spawn"],
                 "result": None}
    if proc.returncode == 0:
        try:
            iteration["result"] = result = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            return iteration
        for phase in ("setup", "verify"):
            if phase in result:
                start, end = result[phase]
                cals = ([c for t, c in probe if start <= t <= end]
                        or [c for _, c in probe] or [CAL_REF_S])
                result[f"{phase}_s"] = end - start
                result[f"{phase}_ref_s"] = at_ref(end - start, cals)
    return iteration


def summary(values: list[float], higher_is_better: bool = False) -> dict:
    """Median, and the worst value with ten samples beyond it (``tail``,
    with ``tail_pct`` percent of the samples no worse than it)."""
    out = {"median": statistics.median(values) if values else 0.0,
           "n": len(values)}
    if len(values) > 10:
        worst_last = sorted(values, reverse=higher_is_better)
        out["tail"] = worst_last[-11]
        out["tail_pct"] = round(100 * (len(values) - 10) / len(values), 1)
    return out


def _layer_value(name: str, stats: dict, params: dict, n: int) -> float:
    _, stat, field = PER_LAYER[name]
    row = stats.get(stat)
    if name == "words.is_necklace.hit_ratio":
        return row[HITS] / row[CALLS] if row and row[CALLS] else 0.0
    if name == "ranking.listing_words":
        ranked = stats.get("ranking.rank_lyndon", [0])[CALLS]
        h, m = params["h"], params["m"]
        return binary_lyndon(h, m * h // n) if ranked else 0
    return (row[field] or 0) if row else 0


def _layer_metrics(traced: list[dict], untraced: list[dict], params: dict,
                   n: int) -> dict:
    metrics = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = (statistics.median(i["wall_s"] for i in traced)
                     / statistics.median(i["wall_s"] for i in untraced))
        else:
            values = [_layer_value(name, i["result"]["trace"]["stats"], params, n)
                      for i in traced]
            # counts are exact and must repeat, so keep them whole
            value = (statistics.median_low if unit == "count"
                     else statistics.median)(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _end_to_end(good: list[dict], details: dict) -> dict:
    samples = {
        "setup_s": ("s", [r["setup_ref_s"] for r in good]),
        "gen_sym_per_s": ("sym/s", [r["gen_symbols"] / r["gen_ref_s"] for r in good]),
        "verify_sym_per_s":
            ("sym/s", [r["verify_symbols"] / r["verify_ref_s"] for r in good]),
        "peak_rss_mb": ("MB", [r["rss_mb"] for r in good]),
        # unscaled wall-clock figures, for reference
        "setup_s_wall": ("s", [r["setup_s"] for r in good]),
        "gen_sym_per_s_wall": ("sym/s", [r["gen_symbols"] / r["gen_s"] for r in good]),
        "verify_sym_per_s_wall":
            ("sym/s", [r["verify_symbols"] / r["verify_s"] for r in good]),
        "gen_chunk_sym_per_s_wall": ("sym/s", [x for r in good for x in r["rates"]]),
    }
    details["summary"] = {key: dict(summary(values, unit == "sym/s"), unit=unit)
                          for key, (unit, values) in samples.items()}
    return {key: {"value": details["summary"][key]["median"], "unit": unit}
            for key, unit in END_TO_END.items()}


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (details, result line)."""
    cfg = workload_config(name, seed, tiny)
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    iterations: list[dict] = []
    while True:
        # Trace runs alternate traced and untraced iterations; the untraced
        # ones are the base of trace.overhead_ratio.
        n_traced = sum(i["traced"] for i in iterations)
        n_plain = len(iterations) - n_traced
        enough = (n_traced >= MIN_ITERATIONS and n_plain >= 1 if trace
                  else n_plain >= MIN_ITERATIONS)
        elapsed = time.monotonic() - start
        if enough and elapsed >= seconds or elapsed > RUN_LIMIT_S:
            break
        iterations.append(_run_child(cfg, trace and n_traced <= n_plain,
                                     RUN_LIMIT_S - elapsed))

    attempted = failed = 0
    failures = []
    for iteration in iterations:
        checks = ((iteration["result"] or {}).get("checks")
                  or [["child exited 0 with a result", False]])
        attempted += len(checks)
        for label, ok in checks:
            if not ok:
                failed += 1
                failures.append(label)
    good = [i for i in iterations if i["result"] and "setup_s" in i["result"]]
    traced = [i for i in good if i["traced"]]
    untraced = [i for i in good if not i["traced"]]
    params = good[0]["result"]["params"] if good else {}
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "inputs": {key: cfg[key] for key in ("n", "k", "L", "mode", "prefix")},
               "params": params, "iterations": len(iterations)}
    if trace:
        calls = [{key: st[CALLS] for key, st in i["result"]["trace"]["stats"].items()}
                 for i in traced]
        attempted += 1
        if not calls or any(c != calls[0] for c in calls):
            failed += 1
            failures.append(".calls counts repeat across traced iterations")
        details["calls"] = calls[0] if calls else {}
        if traced and untraced:
            metrics = _layer_metrics(traced, untraced, params, cfg["n"])
        else:
            metrics = {key: {"value": 0, "unit": unit}
                       for key, (unit, _, _) in PER_LAYER.items()}
        trace_file = os.path.join(OUT, f"trace-{name}-{seed}.json")
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"details": details, "iterations": iterations}, handle)
        details["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        metrics = _end_to_end([i["result"] for i in untraced], details)
    details["failed_ratio"] = failed / attempted
    details["failures"] = failures
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return details, line


def _print_report(details: dict, line: dict) -> None:
    for key, stat in details.get("summary", {}).items():
        tail = (f"  p{stat['tail_pct']:g} {stat['tail']:.6g}"
                if "tail" in stat else "")
        print(f"{details['workload']:<17} {key:<20} median {stat['median']:.6g} "
              f"{stat['unit']}{tail}  (n={stat['n']})")
    print(json.dumps(details))
    print(json.dumps(line))


def smoke(seed: int) -> int:
    """Tiny sizes, every workload, both modes: every declared metric is
    emitted with its declared unit, and no check fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = []
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[group]}
        for name in WORKLOADS:
            details, line = run(name, seed, 0.5, trace, tiny=True)
            got = {key: m["unit"] for key, m in line["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            if details["failed_ratio"] != 0:
                problems.append(f"{name} trace={int(trace)}: failed "
                                f"{details['failures']}")
    for problem in problems:
        print(problem)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check every workload at tiny sizes")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cutdown", "__init__.py")):
        print(f"no cutdown package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    details, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(details, line)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
