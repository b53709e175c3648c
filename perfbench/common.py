"""Problem sizes of the workloads (full and smoke), and the check counter."""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

# Seconds the calibration probe takes on the host the bounds in
# BENCHMARK.json were set on (2 vCPUs, Python 3.11.7).
NOMINAL_CALIB_S = 0.04


@dataclass(frozen=True)
class Sizes:
    walk_genus: int = 24
    split_depth: int = 6
    pruned_frobenius: int = 30
    ye_genus: int = 22
    pflueger_genus: int = 21
    ordinarization_genus: int = 19
    buchweitz_genus: int = 18
    zhai_frobenius: int = 26
    kunz_genus: int = 20
    bijection_genus: int = 15
    semigroups: int = 4000
    min_passes: int = 3
    cli_count_genus: int = 15
    cli_verify_frobenius: int = 20
    setup_samples: int = 7
    cli_samples: int = 3
    rich_repeats: int = 3


FULL = Sizes()
SMOKE = Sizes(walk_genus=12, split_depth=3, pruned_frobenius=14, ye_genus=10,
              pflueger_genus=10, ordinarization_genus=9, buchweitz_genus=8,
              zhai_frobenius=12, kunz_genus=8, bijection_genus=7,
              semigroups=100, min_passes=1, cli_count_genus=8,
              cli_verify_frobenius=10, setup_samples=2, cli_samples=1,
              rich_repeats=1)


class Checks:
    """Counts checks; prints every failure and every exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED check: {what}", file=sys.stderr)

    def add(self, attempted: int, failed: int) -> None:
        """Fold in the counts another process reported."""
        self.attempted += attempted
        self.failed += failed

    def exception(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"EXCEPTION in {where}:", file=sys.stderr)
        traceback.print_exc()


def calibrate() -> float:
    """A fixed pure-Python probe; its time tracks how fast the host is now."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return perf_counter() - t0


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, rescaled to the host speed
    at which the probe takes NOMINAL_CALIB_S.  On a shared host the speed
    drifts by a quarter within minutes; the probes around a measurement
    track that drift, and the rescaled time does not move with it."""
    return seconds * 2 * NOMINAL_CALIB_S / (before + after)
