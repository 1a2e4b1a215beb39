"""Self-test of the benchmark's own statistics and instrumentation.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks the nearest-rank percentile and the tail rule of ``pctl`` against
brute-force oracles on sorted arrays, and checks that the traced run's
wrappers are all taken out again. Exit code 0 means every check passed.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pctl  # noqa: E402

LEVELS = ("0.1", "1", "12.5", "25", "33.3", "50", "66.7", "75", "90", "95", "99",
          "99.5", "99.9", "99.99", "100")


def oracle_rank(level: str, n: int) -> int:
    """Smallest 1-based position k with k/n >= level/100, by linear scan."""
    num, den = Fraction(level).as_integer_ratio()
    for k in range(1, n + 1):
        if k * den * 100 >= num * n:
            return k
    raise AssertionError("no rank")


def oracle_tail(n: int) -> str | None:
    """Highest ladder level with at least ten positions after its rank."""
    best = None
    for level in pctl.TAIL_LADDER:
        if n - oracle_rank(level, n) >= 10:
            best = level
    return best


def test_percentile_matches_oracle() -> None:
    rng = random.Random(1)
    for _ in range(400):
        n = rng.randint(1, 400)
        data = sorted(rng.choice((rng.random(), rng.randint(0, 5))) for _ in range(n))
        for level in LEVELS:
            assert pctl.percentile(data, level) == data[oracle_rank(level, n) - 1], (n, level)
    # The binary-float trap: 0.999 * 1000 is 999.0000000000001.
    assert pctl.rank("99.9", 1000) == 999
    assert pctl.rank(99.9, 1000) == 999


def test_tail_rule_matches_oracle() -> None:
    for n in list(range(0, 1200)) + [1999, 2000, 2001, 10009, 10010, 10011]:
        assert pctl.tail_level(n) == (oracle_tail(n) if n else None), n


def test_rejects_bad_input() -> None:
    for bad in ((0, 10), (100.5, 10), (50, 0)):
        try:
            pctl.rank(*bad)
        except ValueError:
            continue
        raise AssertionError(f"rank{bad} did not raise")


def test_instrumentation_restores_everything() -> None:
    import oran_isac
    import spans
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("oran_isac")]
    before = [dict(vars(m)) for m in modules]
    methods = [(oran_isac.dapp.SensingDapp, "sense_once"),
               (oran_isac.control.XApp, "closed_loop_probe"),
               (oran_isac.control.XApp, "await_report")]
    originals = [vars(cls)[name] for cls, name in methods]
    with spans.Instrumentation(spans.Tracer()):
        assert getattr(oran_isac.dapp.apply_scene, "__wrapped__", None) is not None
    assert [dict(vars(m)) for m in modules] == before
    assert [vars(cls)[name] for cls, name in methods] == originals


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
