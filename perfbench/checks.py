"""Independent expectations for the benchmark's operations, and verdicts.

Nothing here imports fockcount: expected counts come from a direct
dynamic program over sorted site tuples, expected ranks from the known
rank of each algebra's Gram matrix, and expected parameters from the
closed forms written out again. Each operation yields grid points; each
defined point ends in one verdict:

- ``missing``: no result (exception, exit 2, missing row);
- ``wrong``: a value that differs from the expectation;
- ``disagree``: delivered, but the program's own two routes disagree
  (``agrees=false`` or verify ``status=fail``), reported by design;
- ``ok``.

``missing`` and ``wrong`` together are the failures.
"""

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import ceil, comb


@dataclass
class Tally:
    defined: int = 0
    missing: int = 0
    wrong: int = 0
    delivered: int = 0
    disagree: int = 0
    unexpected: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.defined += other.defined
        self.missing += other.missing
        self.wrong += other.wrong
        self.delivered += other.delivered
        self.disagree += other.disagree
        self.unexpected += other.unexpected

    @property
    def failed(self) -> int:
        return self.missing + self.wrong

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.defined if self.defined else 0.0

    @property
    def disagree_ratio(self) -> float:
        return self.disagree / self.delivered if self.delivered else 0.0


# ------------------------------------------------------- expectations ---

def count_sorted(n_sites: int, n: int, gap_ok) -> int:
    """Non-decreasing site tuples in 1..M whose adjacent gaps pass gap_ok."""
    if n == 0:
        return 1
    ways = [1] * n_sites
    for _ in range(n - 1):
        ways = [sum(ways[j] for j in range(t + 1) if gap_ok(t - j)) for t in range(n_sites)]
    return sum(ways)


def count_capped_multisets(n_sites: int, n: int, cap: int) -> int:
    """Multisets of size n on M sites with every multiplicity at most cap."""
    poly = [1] + [0] * n
    for _ in range(n_sites):
        poly = [sum(poly[k - c] for c in range(min(cap, k) + 1)) for k in range(n + 1)]
    return poly[n]


def _binom(n, k) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _gap_rule(family: str, params: dict):
    """Allowed gap between neighbours of a sorted state, or None."""
    if family == "none":
        return lambda g: True
    if family in ("cs", "cs-bose"):
        p, q = params.get("p", 0), params["q"]
        return lambda g: g >= p and (g - p) % q == 0
    if family == "x-fermi":
        xs = set(params["x"])
        return lambda g: g in xs
    if family == "x-bose":
        xs = set(params["x"]) | {0}
        return lambda g: g in xs
    if family == "window-min":
        return lambda g: g >= params["p"]
    return None


def expected_count(family: str, point: dict):
    """(defined, expected closed-form value) of one count grid point."""
    m, n = int(point["M"]), int(point["N"])
    if family in ("cs", "cs-bose", "window-min"):
        params = {k: int(point[k]) for k in ("p", "q") if k in point}
        return True, count_sorted(m, n, _gap_rule(family, params))
    if family in ("x-fermi", "x-bose"):
        xs = [int(x) for x in point["x"].split()]
        return True, count_sorted(m, n, _gap_rule(family, {"x": xs}))
    if family in ("haldane-wu", "real"):
        c = Fraction(point["g" if family == "haldane-wu" else "lambda"])
        if c.denominator == 1 and c >= 0:
            return True, count_sorted(m, n, lambda g: g >= c)
        if family == "real":
            return True, _binom(m + n - 1 - ceil((n - 1) * c), n)
        shift = (n - 1) * (1 - c)
        if shift.denominator != 1:
            return False, None
        return True, _binom(m + int(shift), n)
    if family == "gentile":
        return True, count_capped_multisets(m, n, int(point["m"]))
    if family in ("para-fermi", "para-bose"):
        if n > int(point["p"]):
            return True, 0
        return True, _binom(m, n) if family == "para-fermi" else _binom(m + n - 1, n)
    raise ValueError(f"no expectation for count family {family!r}")


def expected_param(family: str, point: dict):
    """(defined, expected closed-form value) of one params grid point."""
    if family == "cs-finite":
        m, i1, n, p, q = (int(point[k]) for k in ("M", "i1", "N", "p", "q"))
        right = point["side"] == "right"
        added = i1 + n * p if right else i1 - p
        if not (1 <= i1 and i1 + (n - 1) * p <= m and 1 <= added <= m):
            return False, None
        if right:
            return True, Fraction((m - i1 - n * p + 1) // q - (m - i1 - (n + 1) * p + 1) // q)
        return True, Fraction((i1 - p) // q - (i1 - 2 * p) // q)
    if family in ("para-fermi", "para-bose"):
        m, n, k, p = (int(point[x]) for x in ("M", "n", "k", "p"))
        if n < 1 or k < 1 or n + k > p + 1 or n - 1 + k > m:
            return False, None
        if n + k <= p:
            return True, Fraction(1 if family == "para-fermi" else 0)
        top = m - n + 1 if family == "para-fermi" else m
        return True, Fraction(top, p - n + 1)
    if family == "gentile-average":
        pattern = [int(x) for x in point["pattern"].split()]
        open_sites = sum(pattern) - pattern[-1]
        return True, Fraction(pattern[-2], open_sites)
    if family == "single-gentile":
        n, cap = int(point["n"]), int(point["m"])
        return True, Fraction(1 if n + 1 == cap else 0)
    raise ValueError(f"no expectation for params family {family!r}")


def _word_allowed(word, rule) -> bool:
    if rule is None:
        return True
    if rule[0] == "cs":
        _, p, q = rule
        return all(b - a >= p and (b - a - p) % q == 0 for a, b in zip(word, word[1:]))
    _, p, mode = rule
    if mode == "min":
        return all(abs(b - a) >= p for a, b in zip(word, word[1:]))
    return all(abs(b - a) <= p for a, b in zip(word, word[1:]))


def expected_rank(sector: dict) -> int:
    """Rank of the projected orbit Gram matrix.

    For quons with |q| < 1 (q = 0 included) the Fock space is positive
    definite, so every surviving word is independent. Bose orderings are
    all the same vector; Fermi orderings are one vector up to sign on
    distinct letters and the zero vector on repeats.
    """
    ms = sector["multiset"]
    kept = sum(1 for w in set(permutations(ms)) if _word_allowed(w, sector["rule"]))
    alg = sector["alg"]
    if alg.startswith("quon:"):
        return kept
    if alg == "bose":
        return min(kept, 1)
    if alg == "fermi":
        return min(kept, 1) if len(set(ms)) == len(ms) else 0
    raise ValueError(f"unknown algebra {alg!r}")


# ----------------------------------------------------------- verdicts ---

def _points(check: dict):
    columns = [c for c, _ in check["grid"]]
    for values in product(*(v for _, v in check["grid"])):
        yield dict(zip(columns, values))


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _agreement(row: dict, value_col: str, oracle_col: str):
    """'ok', 'disagree' or 'fail' for the row's own route comparison."""
    agrees = row.get("agrees", "")
    if agrees == "false":
        return "disagree"
    if agrees == "true" and Fraction(row[oracle_col]) != Fraction(row[value_col]):
        return "fail"
    if agrees not in ("true", ""):
        return "fail"
    return "ok"


def _check_grid(check: dict, outcome: dict, tally: Tally) -> None:
    family = check["family"]
    expect = expected_count if check["type"] == "count" else expected_param
    oracle_col = "oracle" if check["type"] == "count" else "definitional"
    rows = {}
    if outcome.get("rc") in (0, 1) and outcome.get("text") is not None:
        columns = [c for c, _ in check["grid"]]
        for row in _csv_rows(outcome["text"]):
            rows[tuple(row.get(c) for c in columns)] = row
    for point in _points(check):
        defined, value = expect(family, point)
        if not defined:
            continue
        tally.defined += 1
        row = rows.get(tuple(point.values()))
        if row is None:
            tally.missing += 1
            continue
        tally.delivered += 1
        try:
            verdict = "ok" if Fraction(row["value"]) == value else "fail"
            if verdict == "ok":
                verdict = _agreement(row, "value", oracle_col)
        except (KeyError, ValueError, ZeroDivisionError):
            verdict = "fail"
        if verdict == "fail":
            tally.wrong += 1
        elif verdict == "disagree":
            tally.disagree += 1


def _check_verify(check: dict, outcome: dict, tally: Tally, expected_rows: int) -> None:
    tally.defined += expected_rows
    rows = []
    if outcome.get("rc") in (0, 1) and outcome.get("text") is not None:
        rows = [r for r in _csv_rows(outcome["text"]) if r.get("check") == check["kind"]]
    if len(rows) != expected_rows:
        tally.missing += expected_rows
        return
    info_ok = check["kind"] == "window-max-conventions"
    for row in rows:
        tally.delivered += 1
        status = row.get("status")
        if status == "fail":
            tally.disagree += 1
        elif not (status == "pass" or (status == "info" and info_ok)):
            tally.wrong += 1


def _check_enumerate(check: dict, outcome: dict, tally: Tally) -> None:
    tally.defined += 1
    if outcome.get("rc") != 0 or outcome.get("text") is None:
        tally.missing += 1
        return
    gap_ok = _gap_rule(check["family"], check["params"])
    m, n = check["M"], check["N"]
    states = []
    for row in _csv_rows(outcome["text"]):
        states.append(tuple(int(x) for x in row["state"].split()))
    good = (
        len(states) == count_sorted(m, n, gap_ok)
        and all(a < b for a, b in zip(states, states[1:]))
        and all(
            len(s) == n and 1 <= s[0] and s[-1] <= m
            and all(a <= b and gap_ok(b - a) for a, b in zip(s, s[1:]))
            for s in states
        )
    )
    tally.delivered += 1
    if not good:
        tally.wrong += 1


def check_op(op: dict, outcome: dict, verify_rows: dict | None = None) -> Tally:
    """Verdicts for one operation.

    outcome: {"rc": exit status or None, "text": CLI output or None} for a
    CLI operation, {"value": rank or None} for a sector. A known defect
    may produce up to as many verdicts of each kind as its `allow` map
    pins (its seed values); more, or any other kind, is recorded in
    `unexpected`. Fewer means the defect is (partly) fixed.
    """
    check = op["check"]
    tally = Tally()
    kind = check["type"]
    if kind == "sector":
        tally.defined = 1
        if outcome.get("value") is None:
            tally.missing = 1
        elif outcome["value"] != expected_rank(op["sector"]):
            tally.delivered = tally.wrong = 1
        else:
            tally.delivered = 1
    elif kind == "verify":
        _check_verify(check, outcome, tally, (verify_rows or {})[check["kind"]])
    elif kind == "enumerate":
        _check_enumerate(check, outcome, tally)
    else:
        _check_grid(check, outcome, tally)
    allow = check.get("defect", {}).get("allow", {})
    label = check.get("defect", {}).get("name") or op.get("cli") or op.get("sector")
    for verdict in ("missing", "wrong", "disagree"):
        seen = getattr(tally, verdict)
        if seen > allow.get(verdict, 0):
            tally.unexpected.append(
                f"{seen} {verdict} point(s), {allow.get(verdict, 0)} known: {label}")
    return tally
