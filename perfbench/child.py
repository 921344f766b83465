"""One iteration of a benchmark workload, in a fresh process.

    python3 perfbench/child.py CONFIG_JSON
        Run one iteration and print one JSON line: timings, symbol counts,
        per-chunk rates, peak RSS, the correctness checks made, the derived
        parameters and, when traced, the tracer's spans and aggregates.
        CONFIG_JSON comes from run.py: kind ("library" or "cli"), n, k, L,
        mode, prefix (symbols to stream; 0 drains all L), mark (symbols
        that end set-up), chunk (symbols per timed chunk), trace, t_spawn
        (time.monotonic() just before the spawn) and out_dir.

    python3 perfbench/child.py --cli TRACE_FILE CLI_ARGS...
        Run the cutdown command line exactly as its console script does.
        With a non-empty TRACE_FILE, trace it and write the tracer's dump
        there as JSON.

The package is imported from the checkout's ``src`` directory and nowhere
else.
"""

import time

T0 = time.monotonic()  # process start, before cutdown is imported

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from itertools import islice  # noqa: E402

from calibration import Intervals  # noqa: E402
from tracer import CALL, HIT, ITER, RSS, Tracer, max_rss_mb  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Calls into each layer, traced where the calling module looks them up:
# (module whose attribute is replaced, attribute, stat name, kind).  The
# stat is named after the module that defines the function.
TARGETS = [
    ("cutdown.successor", "is_necklace", "words.is_necklace", HIT),
    ("cutdown.ranking", "is_necklace", "words.is_necklace", HIT),
    ("cutdown.successor", "period", "words.period", CALL),
    ("cutdown.ranking", "period", "words.period", CALL),
    ("cutdown.ranking", "least_rotation", "words.least_rotation", CALL),
    ("cutdown.counting", "count_lyndon", "counting.count_lyndon", CALL),
    ("cutdown.successor", "count_lyndon", "counting.count_lyndon", CALL),
    ("cutdown.cli", "count_lyndon", "counting.count_lyndon", CALL),
    ("cutdown.cutplan", "count_weight_at_most",
     "counting.count_weight_at_most", CALL),
    ("cutdown.cutplan", "count_weight_period_at_most",
     "counting.count_weight_period_at_most", CALL),
    ("cutdown.engine", "derive_params", "cutplan.derive_params", CALL),
    ("cutdown.cli", "derive_params", "cutplan.derive_params", CALL),
    ("cutdown.engine", "cut_set", "cutplan.cut_set", CALL),
    ("cutdown.cli", "cut_set", "cutplan.cut_set", CALL),
    ("cutdown.successor", "pcr3", "successor.pcr3", CALL),
    ("cutdown.successor", "pcr3_alt", "successor.pcr3_alt", CALL),
    ("cutdown.successor", "cut_down_successor",
     "successor.cut_down_successor", CALL),
    ("cutdown.successor", "kary_generator_state",
     "successor.kary_generator_state", CALL),
    ("cutdown.successor", "kary_step", "successor.kary_step", CALL),
    ("cutdown.successor", "rank_lyndon", "ranking.rank_lyndon", CALL),
    ("cutdown.cli", "rank_lyndon", "ranking.rank_lyndon", CALL),
    ("cutdown.engine", "verify", "engine.verify", RSS),
    ("cutdown.cli", "verify", "engine.verify", RSS),
    ("cutdown.cli", "generate", "engine.generate", ITER),
]


def _import(name: str = "cutdown"):
    sys.path.insert(0, SRC)
    module = importlib.import_module(name)
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"{name} was imported from {module.__file__}, "
                         f"not from {SRC}")
    return module


def _params(cutdown, n: int, k: int, L: int) -> dict:
    p = cutdown.derive_params(n, k, L)
    markers = cutdown.cut_set(p.s, n).markers
    return {"m": p.m, "h": p.h, "t": p.t, "s": p.s,
            "markers": ["".join(map(str, w)) for w in markers]}


def _prefix_check(seq: list[int], n: int,
                  chunk: int) -> tuple[bool, bool, Intervals]:
    """Does the prefix start with 0^(n-1)1, and are its linear windows
    pairwise distinct?  Timed in chunks of windows, like generation."""
    data = bytes(seq)
    windows = len(data) - n + 1
    seen: set[bytes] = set()
    timing = Intervals()
    for lo in range(0, windows, chunk):
        t = time.perf_counter()
        seen.update(data[i:i + n] for i in range(lo, min(lo + chunk, windows)))
        timing.add(time.perf_counter() - t)
    return seq[:n] == [0] * (n - 1) + [1], len(seen) == windows, timing


def _library(cfg: dict, tracer: Tracer | None) -> dict:
    n, k, L, mark, chunk = cfg["n"], cfg["k"], cfg["L"], cfg["mark"], cfg["chunk"]
    want = cfg["prefix"] or L
    span = tracer.span if tracer else lambda name, start=None: nullcontext()
    checks = []
    with span("setup", T0):
        cutdown = _import()
        engine = cutdown.engine
        if tracer:
            tracer.install(TARGETS)
        pull = tracer.timer("engine.generate") if tracer else nullcontext()
        spec = cutdown.SequenceSpec(n=n, k=k, L=L, mode=cfg["mode"])
        seq: list[int] = []
        with pull:
            it = engine.generate(spec)
        with pull:
            seq.extend(islice(it, mark))
    t_mark = time.monotonic()
    head = len(seq)
    rates = []
    with span("generate"):
        # Drained workloads pull until the generator is exhausted, so an
        # overlong sequence fails the length check; prefix workloads stop at
        # the prefix length.
        gen = Intervals()
        while (size := min(chunk, want - len(seq)) if cfg["prefix"] else chunk):
            before = len(seq)
            t = time.perf_counter()
            with pull:
                seq.extend(islice(it, size))
            seconds = time.perf_counter() - t
            got = len(seq) - before
            if not got:
                break
            gen.add(seconds)
            rates.append(got / seconds)
    checks.append(["length", len(seq) == want])

    timing = {}
    if not cfg["prefix"]:
        with span("verify"):
            t_verify = time.monotonic()
            report = engine.verify(seq, n, k, expected_len=L)
            timing["verify"] = [t_verify, time.monotonic()]
        checks.append(["verify ok", report.ok])
    rss_mb = max_rss_mb()
    if cfg["prefix"]:
        # The program has no verify step here; the benchmark checks the
        # prefix itself, and reports that check's speed as a control.
        with span("check"):
            starts, distinct, check = _prefix_check(seq, n, chunk)
        timing.update(verify_s=check.seconds, verify_ref_s=check.ref_seconds)
        checks.append(["starts with 0^(n-1)1", starts])
        checks.append(["linear windows distinct", distinct])
    if tracer:
        tracer.restore()
    return {"setup": [cfg["t_spawn"], t_mark], "gen_symbols": len(seq) - head,
            "gen_s": gen.seconds, "gen_ref_s": gen.ref_seconds, "rates": rates,
            "verify_symbols": len(seq), "rss_mb": rss_mb, "checks": checks,
            "params": _params(cutdown, n, k, L), **timing}


def _cli_command(trace_file: str, *args) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--cli", trace_file,
            *map(str, args)]


def _merge_trace(tracer: Tracer | None, trace_file: str) -> None:
    if tracer and os.path.exists(trace_file):
        with open(trace_file, encoding="utf-8") as handle:
            tracer.merge(json.load(handle))
        os.remove(trace_file)


def _cli_pipe(cfg: dict, tracer: Tracer | None) -> dict:
    n, k, L, mark, chunk = cfg["n"], cfg["k"], cfg["L"], cfg["mark"], cfg["chunk"]
    span = tracer.span if tracer else lambda name, start=None: nullcontext()
    stem = os.path.join(cfg["out_dir"], f"cli-{os.getpid()}")
    seq_file = stem + ".seq"
    trace_gen = stem + ".generate.json" if tracer else ""
    trace_ver = stem + ".verify.json" if tracer else ""
    checks = []
    received = 0
    rates = []
    t_mark = None
    # The generate process runs on the other core; this process calibrates
    # between reads.
    with span("cli generate process"):
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            _cli_command(trace_gen, "generate", "--n", n, "--k", k, "--len", L),
            stdout=subprocess.PIPE)
        with proc, open(seq_file, "wb") as sink:
            fd = proc.stdout.fileno()
            while data := os.read(fd, 1 << 16):
                sink.write(data)
                received += len(data)
                now = time.monotonic()
                if t_mark is None:
                    if received >= mark:
                        t_mark = last_t = now
                        head = last = received
                        gen = Intervals()
                elif received - last >= chunk:
                    rates.append((received - last) / (now - last_t))
                    gen.add(now - last_t)
                    last, last_t = received, now
            gen.add(time.monotonic() - last_t)
        checks.append(["generate exit 0", proc.returncode == 0])
        _merge_trace(tracer, trace_gen)
    with span("cli verify process"):
        t_verify = time.monotonic()
        done = subprocess.run(
            _cli_command(trace_ver, "verify", "--n", n, "--k", k, "--len", L,
                         "--json", seq_file),
            stdout=subprocess.PIPE)
        verify = [t_verify, time.monotonic()]
        _merge_trace(tracer, trace_ver)
    os.remove(seq_file)
    checks.append(["verify exit 0", done.returncode == 0])
    try:
        report = json.loads(done.stdout)
    except ValueError:
        report = {}
    checks.append(['verify --json says "ok": true', report.get("ok") is True])
    checks.append(["verified length", report.get("length") == L])
    cutdown = _import()
    symbols = received - 1  # the output ends with a newline
    return {"setup": [t_spawn, t_mark], "gen_symbols": symbols - head,
            "gen_s": gen.seconds, "gen_ref_s": gen.ref_seconds, "rates": rates,
            "verify_symbols": symbols, "verify": verify,
            "rss_mb": max(max_rss_mb(), max_rss_mb(resource.RUSAGE_CHILDREN)),
            "checks": checks, "params": _params(cutdown, n, k, L)}


def _iteration(cfg: dict) -> dict:
    tracer = Tracer() if cfg["trace"] else None
    run = _cli_pipe if cfg["kind"] == "cli" else _library
    try:
        result = run(cfg, tracer)
    except ValueError as exc:
        return {"checks": [[f"unexpected ValueError: {exc}", False]]}
    if tracer:
        result["trace"] = tracer.dump()
    return result


def _cli(trace_file: str, argv: list[str]) -> int:
    cli = _import("cutdown.cli")
    if not trace_file:
        return cli.main(argv)
    tracer = Tracer()
    tracer.install(TARGETS)
    with tracer.span(f"cli.{argv[0]}"):
        code = cli.main(argv)
        sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--cli":
        sys.exit(_cli(sys.argv[2], sys.argv[3:]))
    print(json.dumps(_iteration(json.loads(sys.argv[1]))))
