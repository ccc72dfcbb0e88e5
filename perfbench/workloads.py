"""Seeded inputs of the fockcount benchmark workloads.

A workload is a list of operations, all derived from one `random.Random`
seeded by the command line. Each operation is a plain dict that a fresh
interpreter can rebuild from (workload, seed, index) alone:

- ``{"cli": [...]}``: one ``fockcount.cli.main`` invocation (the output
  path is appended by the child process);
- ``{"sector": {"multiset": [...], "alg": "...", "rule": [...] | None}}``:
  one ``sector_dimension`` call.

The ``check`` entry describes what the benchmark expects, independently
of the library; ``checks.py`` turns it into grid points and verdicts.
The shapes of every workload are fixed and only labels, parameter values
and order come from the seed, so that the amount of work per pass (and
hence its timing) does not depend on the seed.
"""

import random

WORKLOADS = ("verify-all", "gram-sectors", "oracle-sweep")

# The 14 verify kinds that exist at the seed commit, with their row counts.
# Frozen: a kind added to the program later does not change this workload.
VERIFY_ROWS = {
    "avg-g-identity": 60,
    "binom-identity": 48,
    "cs-average": 20,
    "cs-closed-form": 144,
    "cs-equal-pq-form": 72,
    "cs-finite-definitional": 54,
    "cs-integer-gap": 128,
    "cs-oracle": 144,
    "gentile-bounds": 100,
    "gram-rank": 10,
    "para-g": 60,
    "real-integer": 128,
    "window-max-conventions": 12,
    "x-bose-convolution": 126,
}
VERIFY_KINDS = tuple(sorted(VERIFY_ROWS))

# Small reduced fractions: the cost of an exact rank grows with the size of
# q's numerator and denominator, so q comes from a fixed menu.
Q_MENU = ("1/2", "-1/3", "2/3", "-3/5")


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's operations for this seed, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        return _verify_all()
    if workload == "gram-sectors":
        return _gram_sectors(rng)
    if workload == "oracle-sweep":
        return _oracle_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def uses_cli(workload: str) -> bool:
    return workload != "gram-sectors"


# ------------------------------------------------------------ verify-all ---

def _verify_all() -> list[dict]:
    return [
        {"cli": ["verify", "--kind", kind], "check": {"type": "verify", "kind": kind}}
        for kind in VERIFY_KINDS
    ]


# ---------------------------------------------------------- gram-sectors ---

# (pattern, algebra) of the unprojected sectors. "Q" takes a seeded entry of
# Q_MENU. The list mixes full-rank quon sectors with rank-deficient Bose and
# Fermi ones, from 6 to 120 orbit words.
_SECTORS = (
    ((1, 2, 3, 4, 5), "quon:1/2"),
    ((1, 2, 3, 4, 5), "bose"),
    ((1, 1, 2, 2, 3, 3), "quon:-1/3"),
    ((1, 1, 2, 2, 3, 3), "fermi"),
    ((1, 1, 2, 3, 4), "quon:-3/5"),
    ((1, 1, 1, 2, 2, 3), "bose"),
    ((1, 1, 1, 2, 2, 3), "quon:0"),
    ((1, 1, 2, 2, 3), "quon:-1/3"),
    ((1, 2, 3, 4), "fermi"),
    ((1, 1, 1, 2, 3), "Q"),
    ((1, 2, 3), "Q"),
)

# Projected sectors: (pattern, algebra, rule kind). Small orbits, because
# which words survive depends on the seeded labels and rule parameters.
_PROJECTED = (
    ((1, 2, 3, 4), "Q", "window-min"),
    ((1, 1, 2, 3), "Q", "window-max"),
    ((1, 2, 3, 4), "bose", "cs"),
    ((1, 2, 3, 4), "fermi", "window-max"),
)


def _labels(rng: random.Random, pattern, span: int) -> list[int]:
    """Relabel the pattern's letters by increasing seeded sites, so the
    orbit (and its Gram matrix) keeps its order and shape."""
    letters = sorted(set(pattern))
    sites = sorted(rng.sample(range(1, span + 1), len(letters)))
    relabel = dict(zip(letters, sites))
    return [relabel[x] for x in pattern]


def _alg(rng: random.Random, alg: str) -> str:
    return "quon:" + rng.choice(Q_MENU) if alg == "Q" else alg


def _gram_sectors(rng: random.Random) -> list[dict]:
    ops = []
    for pattern, alg in _SECTORS:
        sector = {"multiset": _labels(rng, pattern, 40), "alg": _alg(rng, alg), "rule": None}
        ops.append({"sector": sector, "check": {"type": "sector"}})
    for pattern, alg, kind in _PROJECTED:
        if kind == "cs":
            rule = ["cs", rng.randint(0, 2), rng.randint(1, 2)]
        else:
            rule = ["window", rng.randint(1, 3), kind.split("-")[1]]
        sector = {"multiset": _labels(rng, pattern, 9), "alg": _alg(rng, alg), "rule": rule}
        ops.append({"sector": sector, "check": {"type": "sector"}})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- oracle-sweep ---

def _fmt(values) -> str:
    return ",".join(str(v) for v in values)


def _grid_op(cmd: str, family: str, grid: list[tuple], defect=None) -> dict:
    """A count/params invocation with --oracle over the given grid.

    grid: (flag, output column, values[, values as the column shows them]);
    the grid points are the product of the values.
    """
    argv = [cmd, "--family", family]
    for flag, _, values, *_ in grid:
        argv += [flag, _fmt(values)]
    argv.append("--oracle")
    check = {
        "type": cmd,
        "family": family,
        "grid": [[item[1], [str(v) for v in item[-1]]] for item in grid],
    }
    if defect:
        check["defect"] = defect
    return {"cli": argv, "check": check}


# Known defects and discrepancies at the seed commit. They stay in every
# pass so that they stay visible. `allow` pins the verdicts each produced at
# the seed commit: more of them, or another kind, makes the run incorrect;
# fewer means the defect is (partly) fixed.
KNOWN_DEFECTS = (
    _grid_op("count", "window-min",
             [("--M", "M", list(range(1, 9))), ("--N", "N", [1, 2, 3, 4]),
              ("--p", "p", [1, 2])],
             defect={"name": "window-min-oracle", "allow": {"disagree": 39}}),
    _grid_op("count", "haldane-wu",
             [("--M", "M", [6, 7, 8, 9]), ("--N", "N", [1, 2, 3, 4]),
              ("--g", "g", ["0", "1/2"])],
             defect={"name": "haldane-wu-undefined-point", "allow": {"missing": 24}}),
    _grid_op("params", "cs-finite",
             [("--M", "M", [12, 13, 14]), ("--i1", "i1", [1]), ("--N", "N", [2]),
              ("--p", "p", [1]), ("--q", "q", [2]), ("--side", "side", ["right", "left"])],
             defect={"name": "cs-finite-wall-abort", "allow": {"missing": 3}}),
    # The closed form quotes standard floors, the definitional route the
    # strict floor floor((x-1)/q); the readings differ at q >= 2 (README,
    # "Conventions worth knowing"). Away from the walls, so the two routes
    # otherwise agree. About 300 ms: it belongs to the heavy tier below.
    _grid_op("params", "cs-finite",
             [("--M", "M", [13]), ("--i1", "i1", [5]), ("--N", "N", [1, 2]),
              ("--p", "p", [2]), ("--q", "q", [1, 2, 3]), ("--side", "side", ["right", "left"])],
             defect={"name": "cs-finite-floor-convention", "allow": {"disagree": 3}}),
)

# Canonical-state listings of 31,465 rows each: (family, extra flags, M, N).
_ENUMERATIONS = (
    ("cs", [("--p", "1"), ("--q", "1")], 31, 4),
    ("cs", [("--p", "2"), ("--q", "1")], 34, 4),
    ("window-min", [("--p", "1")], 31, 4),
)

_GENTILE_PATTERNS = ((1, 2), (3, 1), (2, 1), (1, 1))


def _m_range(rng: random.Random, lo: int, hi: int, length: int) -> list[int]:
    start = rng.randint(lo, hi)
    return list(range(start, start + length))


def _oracle_sweep(rng: random.Random) -> list[dict]:
    """25 invocations in three cost tiers, so that the median and the 90th
    percentile of the per-invocation latencies fall inside a tier: 16 cheap
    ones (about 10 ms), 3 of about 30 ms and 6 of 200 to 350 ms. The seed
    draws the parameters of the cheap ones and the order of all. The grids
    of the known defects are fixed, so the ratios do not depend on it."""
    n14 = [1, 2, 3, 4]
    ops = [dict(op) for op in KNOWN_DEFECTS]
    # q = 0 count families: the word-count shortcut, no Gram matrix.
    for _ in range(2):
        ops.append(_grid_op("count", "cs", [
            ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", n14),
            ("--p", "p", [rng.randint(0, 2)]), ("--q", "q", [rng.randint(1, 3)])]))
        ops.append(_grid_op("count", "cs-bose", [
            ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", n14),
            ("--q", "q", sorted(rng.sample([1, 2, 3], 2)))]))
        ops.append(_grid_op("count", "real", [
            ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", n14),
            ("--lambda", "lambda", [rng.choice(["1/2", "3/2", "1/3"]),
                                    rng.choice(["0", "1", "2"])])]))
    for family in ("x-fermi", "x-bose", "x-fermi", "x-bose"):
        xs = sorted(rng.sample([1, 2, 3, 4], rng.randint(1, 3)))
        ops.append(_grid_op("count", family, [
            ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", n14),
            ("--x-set", "x", xs, [" ".join(map(str, xs))])]))
    ops.append(_grid_op("count", "haldane-wu", [
        ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", n14),
        ("--g", "g", sorted(rng.sample([0, 1, 2], 2)))]))
    # fractional g on particle numbers where (N-1)(1-g) is an integer
    ops.append(_grid_op("count", "haldane-wu", [
        ("--M", "M", _m_range(rng, 6, 9, 8)), ("--N", "N", [1, 3, 5]),
        ("--g", "g", [rng.choice(["1/2", "3/2", "5/2"])])]))
    pattern = rng.choice(_GENTILE_PATTERNS)
    ops.append({
        "cli": ["params", "--family", "gentile-average", "--pattern", _fmt(pattern), "--oracle"],
        "check": {"type": "params", "family": "gentile-average",
                  "grid": [["pattern", [" ".join(map(str, pattern))]],
                           ["M", [str(sum(pattern))]]]},
    })
    ops.append(_grid_op("params", "single-gentile", [
        ("--n", "n", [0, 1, 2, 3]), ("--m", "m", [rng.randint(4, 6)])]))
    # About 30 ms: small capped-algebra parameter grids.
    start = rng.randint(4, 6)
    ops.append(_grid_op("params", "para-fermi", [
        ("--M", "M", [start, start + 1, start + 2]), ("--n", "n", [1]),
        ("--k", "k", [1, 2]), ("--p", "p", [2, 3])]))
    ops.append(_grid_op("params", "para-bose", [
        ("--M", "M", [start, start + 1, start + 2]), ("--n", "n", [1, 2]),
        ("--k", "k", [1]), ("--p", "p", [2, 3])]))
    # Heavy tier, with a cost that does not depend on the seed. Gram-route
    # count families build thousands of tiny sectors via count_enumerated.
    ops.append(_grid_op("count", "gentile", [
        ("--M", "M", [4, 5]), ("--N", "N", n14), ("--m", "m", [2])]))
    for family in ("para-fermi", "para-bose"):
        ops.append(_grid_op("count", family, [
            ("--M", "M", [4, 5, 6]), ("--N", "N", n14), ("--p", "p", [3])]))
    # Listings of 31,465 rows: rendering dominates.
    for family, extra, m, n in rng.sample(_ENUMERATIONS, 2):
        argv = ["enumerate", "--family", family, "--M", str(m), "--N", str(n)]
        for flag, value in extra:
            argv += [flag, value]
        params = {flag.lstrip("-"): int(value) for flag, value in extra}
        ops.append({"cli": argv, "check": {"type": "enumerate", "family": family,
                                           "M": m, "N": n, "params": params}})
    rng.shuffle(ops)
    return ops
