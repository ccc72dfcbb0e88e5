"""Run one benchmark operation in a fresh interpreter.

Usage: python -I -S perfbench/child.py ROOT WORKLOAD SEED INDEX SPANS OUT

The interpreter starts with nothing of fockcount imported and an empty
contraction cache, as a user's process does. It imports the library from
ROOT/src, regenerates the workload's inputs from SEED (both timed as
set-up), runs operation INDEX (timed), times a fixed calibration loop (the
machine's current speed) and prints one JSON line. A CLI
operation writes its output to OUT. Unless SPANS is "-", the layers are
wrapped first, their totals are reported and the raw spans are appended
to the file SPANS. INDEX -1 only imports (warm-up).
"""

import sys
import time


def main(argv: list[str]) -> None:
    root, workload, seed, index, spans_path, out = argv
    index, traced = int(index), spans_path != "-"
    t0 = time.perf_counter()
    sys.path.insert(0, root + "/src")
    sys.path.insert(1, root + "/perfbench")
    import fockcount
    import workloads
    if workloads.uses_cli(workload):
        import fockcount.cli
    if index < 0:
        return
    op = workloads.generate(workload, int(seed))[index]
    call = _prepare(fockcount, op, out)
    t1 = time.perf_counter()

    tracer = contract = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        contract = getattr(getattr(fockcount, "algebra_engine", None), "_contract", None)
        contract = contract if hasattr(contract, "cache_info") else None
        before = contract.cache_info() if contract else None

    t2 = time.perf_counter()
    error = None
    try:
        result = call()
    except Exception as exc:  # the benchmark records the failure and goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    t3 = time.perf_counter()

    import json
    report = {
        "setup_s": t1 - t0,
        "op_s": t3 - t2,
        "rss_kb": _peak_rss_kb(),
        "cal_s": _calibrate(),
        "result": result,
        "error": error,
    }
    if traced:
        report["layers"] = tracer.layer_totals()
        report["counters"] = dict(tracer.counters)
        report["absent"] = tracer.absent
        if contract:
            after = contract.cache_info()
            report["contract"] = {
                "hits": after.hits - before.hits,
                "misses": after.misses - before.misses,
                "currsize": after.currsize,
            }
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"op": index, "names": tracer.names, "spans": tracer.spans}))
            fh.write("\n")
    print(json.dumps(report), flush=True)
    # Skip the interpreter's teardown: it is not part of any measurement.
    import os
    os._exit(0)


def _calibrate() -> float:
    """Seconds a fixed loop of Fraction and dict work takes (about 25 ms),
    the kind of work fockcount does. It runs after the peak resident set is
    read, and with garbage collection off, so that neither the memory metric
    nor the heap the operation left behind depends on it."""
    import gc
    from fractions import Fraction
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    counts = {}
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _peak_rss_kb() -> int:
    """Peak resident set of this interpreter (Linux VmHWM).

    Not ru_maxrss: Linux carries the spawning process's high-water mark
    across fork/vfork and exec into ru_maxrss, so it would report the
    harness's memory instead of the interpreter's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _prepare(fockcount, op: dict, out: str):
    """Build the library inputs of one operation; returns the timed call."""
    if "cli" in op:
        argv = op["cli"] + ["--out", out]
        return lambda: fockcount.cli.main(argv)
    from fractions import Fraction
    sector = op["sector"]
    alg_text = sector["alg"]
    if alg_text == "bose":
        alg = fockcount.bose()
    elif alg_text == "fermi":
        alg = fockcount.fermi()
    else:
        alg = fockcount.quon(Fraction(alg_text.split(":", 1)[1]))
    rule = sector["rule"]
    if rule is not None:
        rule = (fockcount.CSRule(rule[1], rule[2]) if rule[0] == "cs"
                else fockcount.WindowRule(rule[1], rule[2]))
    multiset = tuple(sector["multiset"])
    return lambda: fockcount.sector_dimension(multiset, alg, rule)


if __name__ == "__main__":
    main(sys.argv[1:])
