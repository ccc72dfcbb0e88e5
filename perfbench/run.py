"""fockcount benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``verify-all`` (the 14 seed verify kinds),
``gram-sectors`` (seeded ``sector_dimension`` calls on orbits of 6 to 120
words) and ``oracle-sweep`` (seeded ``count``/``params --oracle`` grids
and ``enumerate`` listings, plus the three known defects).

One pass runs every operation of the workload once, each in a fresh
interpreter (``python -I -S``) that imports fockcount from ``src``, so
every call starts cold, as a user's does. Operations run one after the
other; the harness itself starts no threads. Passes repeat until the next
one would end after ``--seconds``. Every result is checked against an
independent expectation (checks.py).

The speed of a shared machine swings by a third over periods of seconds.
Each interpreter therefore also times a fixed calibration loop, and every
time a pass yields is scaled by CALIBRATION_REF_S / (the pass's median
calibration time): times are reported in seconds at the speed where the
loop takes CALIBRATION_REF_S. A change to fockcount moves them as it moves
the raw times; the machine's swings cancel out.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (spans.py wraps the layers' public functions)
and prints the per-layer metrics; the raw spans go to
``.perfbench_out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts
operations with a verdict that is not expected: the known defects
(workloads.KNOWN_DEFECTS) count in ``ok_ratio``/``agree_ratio`` and
``fail_ratio``/``disagree_ratio`` but, up to their seed values, not in
``failed``.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60
# The calibration loop's time at the reference speed (child._calibrate).
CALIBRATION_REF_S = 0.025

# (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("agree_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.render.rows", "count"),
    ("counting.closed.calls", "count"),
    ("counting.closed.self_s", "s"),
    ("counting.count_enumerated.calls", "count"),
    ("counting.count_enumerated.self_s", "s"),
    ("restrictions.enumerate_allowed.calls", "count"),
    ("restrictions.enumerate_allowed.self_s", "s"),
    ("restrictions.enumerate_allowed.states", "count"),
    ("restrictions.count_allowed_words.calls", "count"),
    ("restrictions.count_allowed_words.self_s", "s"),
    ("haldane_params.compare.calls", "count"),
    ("haldane_params.compare.self_s", "s"),
    ("gram.gram_matrix.calls", "count"),
    ("gram.gram_matrix.self_s", "s"),
    ("gram.gram_matrix.entries", "count"),
    ("gram.gram_matrix.max_dim", "count"),
    ("gram.gram_matrix.zero_rows", "count"),
    ("gram.rational_rank.calls", "count"),
    ("gram.rational_rank.self_s", "s"),
    ("gram.rational_rank.cells", "count"),
    ("gram.sector_dimension.calls", "count"),
    ("gram.sector_dimension.self_s", "s"),
    ("gram.one_particle_dimension.calls", "count"),
    ("gram.extended_g.calls", "count"),
    ("gram.extended_g.self_s", "s"),
    ("gram.rank_per_dim", "ratio"),
    ("algebra_engine.inner_product.calls", "count"),
    ("algebra_engine.inner_product.self_s", "s"),
    ("algebra_engine.contract.hits", "count"),
    ("algebra_engine.contract.misses", "count"),
    ("algebra_engine.contract.hit_ratio", "ratio"),
    ("algebra_engine.contract.currsize", "count"),
)
PER_LAYER = (
    *_LAYER_METRICS,
    *((f"verify.{kind}.wall_s", "s") for kind in workloads.VERIFY_KINDS),
    ("trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
    ("disagree_ratio", "ratio"),
)

# Metrics read from the `contract` report rather than from spans.
_CONTRACT_METRICS = {name for name, _ in _LAYER_METRICS if ".contract." in name}


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.reports: list[dict] = []
        self.tally = checks.Tally()
        self.failed_ops = 0
        self.verify_texts: list[str] = []
        self.calibration_s = CALIBRATION_REF_S

    @property
    def wall_s(self) -> float:
        return sum(r["op_s"] for r in self.reports if "op_s" in r)


def _spawn(workload: str, seed: int, index: int, spans_path: str, out: Path) -> dict:
    cmd = [sys.executable, "-I", "-S", str(HERE / "child.py"), str(ROOT), workload,
           str(seed), str(index), spans_path, str(out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-2000:] or f"exit status {proc.returncode}"}
    return json.loads(lines[-1])


def _run_pass(workload, seed, ops, traced, work: Path, spans_file: Path) -> Pass:
    """One pass over the operations, each checked after it has run."""
    result = Pass(traced)
    for index, op in enumerate(ops):
        out = work / f"op{index}.out"
        report = _spawn(workload, seed, index, str(spans_file) if traced else "-", out)
        result.reports.append(report)
        value = None if report.get("error") else report.get("result")
        if "cli" in op:
            text = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            outcome = {"rc": value, "text": text}
            if op["check"]["type"] == "verify" and text is not None:
                result.verify_texts.append(text)
        else:
            outcome = {"value": value}
        tally = checks.check_op(op, outcome, workloads.VERIFY_ROWS)
        if report.get("error"):
            tally.unexpected.append(f"operation {index} raised: {report['error']}")
        result.tally.add(tally)
        result.failed_ops += bool(tally.unexpected)
    _scale_to_reference(result)
    return result


def _scale_to_reference(p: Pass) -> None:
    """Scale the pass's times to the calibration loop's reference speed."""
    calibrations = [r["cal_s"] for r in p.reports if "cal_s" in r]
    if not calibrations:
        return
    p.calibration_s = statistics.median(calibrations)
    factor = CALIBRATION_REF_S / p.calibration_s
    for report in p.reports:
        for key in ("setup_s", "op_s"):
            if key in report:
                report[key] *= factor
        for totals in report.get("layers", {}).values():
            totals[1] *= factor


def _verify_all_sha256(texts: list[str]) -> str:
    """sha256 of the `verify --all` output the per-kind outputs make up."""
    if not texts:
        return ""
    body = texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _nearest_rank(values: list[float], share: float) -> float:
    """The value of rank ceil(share * n): always one operation's latency,
    never a blend of two."""
    return sorted(values)[max(ceil(share * len(values)), 1) - 1]


def _op_label(op: dict) -> str:
    if "sector" in op:
        sector = op["sector"]
        return f"sector_dimension {sector['multiset']} {sector['alg']} rule={sector['rule']}"
    return " ".join(op["cli"])


def _op_latencies_ms(passes: list[Pass]) -> dict[int, float]:
    """Each operation's median latency over the passes, by operation index."""
    return {index: statistics.median(r["op_s"] * 1000 for r in reports if "op_s" in r)
            for index, reports in enumerate(zip(*(p.reports for p in passes)))
            if any("op_s" in r for r in reports)}


def end_to_end_metrics(passes: list[Pass]) -> dict[str, float]:
    """Latency percentiles (nearest rank) are taken over the workload's
    operations, each represented by its median over the passes; the medians
    damp the speed swings of a shared machine without mixing operations."""
    reports = [r for p in passes for r in p.reports if "op_s" in r]
    latencies = list(_op_latencies_ms(passes).values())
    tally = checks.Tally()
    for p in passes:
        tally.add(p.tally)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_p50_ms": _nearest_rank(latencies, 0.5),
        "op_p90_ms": _nearest_rank(latencies, 0.9),
        "ok_ratio": 1 - tally.fail_ratio,
        "agree_ratio": 1 - tally.disagree_ratio,
        "peak_rss_mb": statistics.median(
            max(r["rss_kb"] for r in p.reports if "rss_kb" in r) / 1024 for p in passes),
    }


def _pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    values = {name: 0.0 for name, _ in _LAYER_METRICS}
    hits = misses = 0
    for report in p.reports:
        for layer, (calls, self_s) in report.get("layers", {}).items():
            values[f"{layer}.calls"] = values.get(f"{layer}.calls", 0) + calls
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0) + self_s
        for name, value in report.get("counters", {}).items():
            if name.endswith(".max_dim"):
                values[name] = max(values.get(name, 0), value)
            else:
                values[name] = values.get(name, 0) + value
        contract = report.get("contract")
        if contract:
            hits += contract["hits"]
            misses += contract["misses"]
            values["algebra_engine.contract.currsize"] = max(
                values["algebra_engine.contract.currsize"], contract["currsize"])
    values["algebra_engine.contract.hits"] = hits
    values["algebra_engine.contract.misses"] = misses
    values["algebra_engine.contract.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    dims = values.pop("gram.dim_sum", 0)
    values["gram.rank_per_dim"] = values.pop("gram.rank_sum", 0) / dims if dims else 0.0
    return values


def per_layer_metrics(passes: list[Pass], ops: list[dict]) -> tuple[dict[str, float], list[str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    absent = sorted({name for p in traced for r in p.reports for name in r.get("absent", ())})
    contract_seen = any("contract" in r for p in traced for r in p.reports)
    per_pass = [_pass_layers(p) for p in traced]
    metrics = {}
    missing_layers = {target[0] for target in spans.TARGETS
                      if f"{target[1]}.{target[2]}" in absent}
    for name, _ in _LAYER_METRICS:
        layer = name.rsplit(".", 1)[0]
        if layer in missing_layers or (name in _CONTRACT_METRICS and not contract_seen):
            continue
        metrics[name] = statistics.median(v[name] for v in per_pass)
    if not contract_seen:
        absent.append("fockcount.algebra_engine._contract.cache_info")
    for kind in workloads.VERIFY_KINDS:
        index = next((i for i, op in enumerate(ops)
                      if op["check"].get("kind") == kind), None)
        times = [p.reports[index]["op_s"] for p in plain
                 if index is not None and "op_s" in p.reports[index]]
        metrics[f"verify.{kind}.wall_s"] = statistics.median(times) if times else 0.0
    metrics["trace_overhead"] = (statistics.median(p.wall_s for p in traced)
                                 / statistics.median(p.wall_s for p in plain) - 1)
    tally = checks.Tally()
    for p in passes:
        tally.add(p.tally)
    metrics["fail_ratio"] = tally.fail_ratio
    metrics["disagree_ratio"] = tally.disagree_ratio
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fockcount" / "__init__.py").is_file():
        print(f"error: no fockcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"
    try:
        # Compiles the bytecode once, a cost users do not pay on every call.
        warm = subprocess.run(
            [sys.executable, "-I", "-S", str(HERE / "child.py"), str(ROOT), args.workload,
             "0", "-1", "-", str(work / "warm.out")],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if warm.returncode != 0:
            print(f"error: cannot import fockcount:\n{warm.stderr}", file=sys.stderr)
            return 2
        if args.trace:
            spans_file.parent.mkdir(exist_ok=True)
            spans_file.write_text("")
        ops = workloads.generate(args.workload, args.seed)
        passes = _measure(args, ops, work, spans_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(p.failed_ops == 0 for p in passes)
    for p in passes:
        for line in p.tally.unexpected:
            print(f"unexpected: {line}", file=sys.stderr)
    attempted = sum(len(p.reports) for p in passes)
    failed = sum(p.failed_ops for p in passes)
    plain = [p for p in passes if not p.traced]
    if args.trace:
        values, absent = per_layer_metrics(passes, ops)
        units = dict(PER_LAYER)
        for name in absent:
            print(f"absent: {name}", file=sys.stderr)
    else:
        values, units = end_to_end_metrics(plain), dict(END_TO_END)
    tally = checks.Tally()
    for p in passes:
        tally.add(p.tally)
    print(f"# {args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(passes) - len(plain)} traced passes of {len(ops)} operations; "
          f"{tally.defined} defined points, {tally.failed} failed, "
          f"{tally.delivered} delivered, {tally.disagree} disagreeing")
    print(f"# calibration loop: median {statistics.median(p.calibration_s for p in passes) * 1000:.3f}"
          f" ms per pass; times are scaled to {CALIBRATION_REF_S * 1000:g} ms")
    if args.workload == "verify-all" and plain:
        print(f"# verify --all output sha256 {_verify_all_sha256(plain[0].verify_texts)}")
    if not args.trace:
        latencies = _op_latencies_ms(plain)
        for name in ("op_p50_ms", "op_p90_ms"):
            index = next(i for i, ms in latencies.items() if ms == values[name])
            print(f"# {name} is operation {index}: {_op_label(ops[index])}")
    for name, value in values.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def _measure(args, ops, work: Path, spans_file: Path) -> list[Pass]:
    """Passes until the next one would end after --seconds; a traced run
    alternates untraced and traced passes and makes at least one of each."""
    start = time.perf_counter()
    passes: list[Pass] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append(_run_pass(args.workload, args.seed, ops, traced, work, spans_file))
        took = time.perf_counter() - began
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + took > args.seconds:
            return passes


if __name__ == "__main__":
    sys.exit(main())
