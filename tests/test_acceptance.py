"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion.  The deep census (genus 30) is built once per
module and reused; runtime criteria are measured on that single-threaded
run.
"""

import time

import pytest

import sgforge as sf
from sgforge.cli import _render_table, main as cli_main
from test_tree import FIG1, FIG4, GapSetCollector, brute_force_gapsets

pytestmark = pytest.mark.slow

RUNTIME_SLACK = 1.0   # criteria state wall-clock budgets for commodity hardware

# Published rows, independent of this code's output.
# OEIS A007323: numerical semigroups of genus g, g = 0..30.
A007323 = [
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467, 22464, 37396, 62194, 103246, 170963, 282828, 467224,
    770832, 1270267, 2091030, 3437839, 5646773,
]
# OEIS A124506: numerical semigroups with Frobenius number F, F = 1..32.
A124506 = [
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40, 106, 103, 200, 205, 465, 405,
    961, 900, 1828, 1913, 4096, 3578, 8273, 8175, 16132, 16267, 34903, 31822,
    70854, 68681,
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def timed30():
    t0 = time.perf_counter()
    table = sf.enumerate_tree(30)
    return table, time.perf_counter() - t0


def test_criterion_01_genus_row_via_cli(capsys):
    t0 = time.perf_counter()
    code = cli_main(["count", "--max-genus", "15", "--workers", "1"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    expected = "genus,count\n" + "\n".join(
        f"{g},{n}" for g, n in enumerate(FIG1)) + "\n"
    ok = code == 0 and out == expected and elapsed < 1.0 * RUNTIME_SLACK
    with capsys.disabled():
        _report(1, ok, f"N(g) row for g <= 15 exact, {elapsed:.3f}s")


def test_criterion_02_multiplicity_table():
    t0 = time.perf_counter()
    table = sf.enumerate_tree(10)
    elapsed = time.perf_counter() - t0
    cells = 0
    ok = True
    for g, row in FIG4.items():
        for m, expected in enumerate(row, start=2):
            if g == 0:
                continue
            cells += 1
            ok = ok and table.n_mg(m, g) == expected
    ok = ok and cells == 55 and table.n_mg(1, 0) == 1
    ok = ok and table.n_mg(6, 9) == 27 and table.n_mg(8, 10) == 44 \
        and table.n_mg(9, 10) == 29
    ok = ok and elapsed < 1.0 * RUNTIME_SLACK
    _report(2, ok, f"all {cells} multiplicity cells for g <= 10 exact, "
                   f"{elapsed:.3f}s")


def test_criterion_03_depth30_performance_oracle_determinism(timed30):
    table, elapsed = timed30
    ok = elapsed < 60.0 * RUNTIME_SLACK

    # Independent oracle: subsets of [1, 2g-1] filtered by closure only.
    harvest = sf.enumerate_tree(12, collectors={"gapsets": GapSetCollector})
    by_genus = harvest.extras["gapsets"].by_genus
    for g in range(13):
        ok = ok and by_genus[g] == brute_force_gapsets(g)
    ok = ok and harvest.n_of_g == table.n_of_g[:13]

    # Byte-identical output across split/worker configurations.  Only
    # workers > 1 starts a pool; split_depth is range-checked and otherwise
    # ignored, so the (d, 1) runs walk their jobs in this process.
    baseline = _render_table(["genus", "count"], table.rows_by_genus(), "csv")
    for split, workers in [(3, 1), (6, 1), (3, 4), (6, 4)]:
        other = sf.enumerate_tree(30, split_depth=split, workers=workers)
        text = _render_table(["genus", "count"], other.rows_by_genus(), "csv")
        ok = ok and text == baseline
    _report(3, ok, f"genus 30 in {elapsed:.1f}s (< 60s), oracle-exact to "
                   f"g=12, byte-identical across split/worker configs")


def test_criterion_04_frobenius_counts():
    t0 = time.perf_counter()
    small = sf.ns_by_frobenius(6)
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    big = sf.ns_by_frobenius(32)
    t_big = time.perf_counter() - t0
    ok = (small[5], small[6]) == (5, 4) and t_small < 1.0 * RUNTIME_SLACK
    ok = ok and (big[31], big[32]) == (70854, 68681) \
        and t_big < 600.0 * RUNTIME_SLACK
    ok = ok and [big[f] for f in range(1, 33)] == A124506
    _report(4, ok, f"ns(5)=5 ns(6)=4 in {t_small:.3f}s; "
                   f"ns(31)=70854 ns(32)=68681 in {t_big:.2f}s; "
                   "ns(F) equals OEIS A124506 for F <= 32")


def test_criterion_05_fibonacci_window_count(timed30):
    table, _ = timed30
    ok = all(table.f_lt_2m[g] == sf.fibonacci(g + 1) for g in range(1, 21))
    _report(5, ok, "count of F < 2m equals fibonacci(g+1) for 1 <= g <= 20")


def test_criterion_06_f3m_lower_bound(timed30):
    table, _ = timed30
    ok = all(
        sf.zhao_lower_bound(g) <= table.t(g) <= table.n(g)
        for g in range(1, 26)
    )
    _report(6, ok, "lower bound <= t(g) <= N(g) for 1 <= g <= 25")


def test_criterion_07_truncation_recurrence(timed30):
    table, _ = timed30
    ok = True
    cells = 0
    for g in range(1, 19):
        for m in range(2, g + 2):
            if 2 * g >= 3 * m:
                continue
            cells += 1
            lhs = table.n_mg(m - 1, g - 1)
            if g >= 2:
                lhs += table.n_mg(m - 1, g - 2)
            ok = ok and lhs == table.n_mg(m, g)
    bij_cells = 0
    for g in range(1, 16):
        for m in range(3, g + 2):
            if 2 * g >= 3 * m:
                continue
            bij_cells += 1
            good, _wit = sf.recurrence_bijection_check(m, g)
            ok = ok and good
    _report(7, ok, f"recurrence exact on {cells} cells (g <= 18); "
                   f"truncation bijective on {bij_cells} cells (g <= 15)")


def test_criterion_08_polytope_oracle(timed30):
    table, _ = timed30
    ok = True
    for m in range(2, 10):
        for g in range(1, 16):
            ok = ok and sf.count_by_polytope(m, g) == table.n_mg(m, g)
    # Multiplicity 3 forces genus >= 2: N(3(,1) = 0, the ceiling formula
    # applies from g = 2 (see notes in kunz_oracle_sweep).
    ok = ok and sf.count_by_polytope(3, 1) == 0
    for g in range(2, 31):
        ok = ok and sf.count_by_polytope(3, g) == (g + 3) // 3
    _report(8, ok, "polytope counts match tree for m <= 9, g <= 15; "
                   "ceiling formula for N(3, g) on 2 <= g <= 30")


def test_criterion_09_second_order_identity(timed30):
    table, _ = timed30
    ok = True
    for g in range(21):
        res = sf.ye_identity(g, table)
        ok = ok and res.holds
        ok = ok and table.n(g + 2) >= table.n(g + 1) - table.n(g)
    _report(9, ok, "exact identity and corollary for 0 <= g <= 20")


def test_criterion_10_conjecture_sweeps(timed30):
    table, _ = timed30
    wilf_ok = sum(table.wilf_violations) == 0                      # g <= 30
    fib_ok = all(table.n(g) >= table.n(g - 1) + table.n(g - 2)
                 for g in range(2, 31))
    ord_report = sf.ordinarization_sweep(18)                       # cells g <= 17
    pfl_report = sf.pflueger_sweep(25)
    col_ok = all(
        table.n_mg(m, g) <= table.n_mg(m, g + 1)
        for m in range(2, 10) for g in range(1, 21)
    )
    zhai_report = sf.zhai_sweep(20)
    ok = (wilf_ok and fib_ok and ord_report.ok and pfl_report.ok
          and col_ok and zhai_report.ok)
    _report(10, ok, "wilf(30), superadditivity(30), ordinarization(17), "
                    "pflueger(25), column monotonicity(20), "
                    "geometric-sum inequality(F<=20) all clean")


def test_criterion_11_global_bounds(timed30):
    table, _ = timed30
    ok = True
    for g in range(3, 31):
        lo, hi = sf.global_bounds(g)
        ok = ok and lo <= table.n(g) <= hi
    lo3, hi3 = sf.global_bounds(3)
    ok = ok and lo3 == table.n(3) == hi3 == 4
    _report(11, ok, "2 F(g) <= N(g) <= 1 + 3*2^(g-3) for 3 <= g <= 30, "
                    "both tight at g = 3")


def test_criterion_12_ratio_trajectory(timed30):
    table, _ = timed30
    ratios = {g: table.n(g) / table.n(g - 1) for g in range(25, 31)}
    ok = all(1.55 <= r <= 1.70 for r in ratios.values())
    # Regression baselines frozen from the first verified run.
    baselines = {25: 1.6520, 26: 1.6498, 27: 1.6479, 28: 1.6461,
                 29: 1.6441, 30: 1.6425}
    ok = ok and all(abs(ratios[g] - baselines[g]) < 5e-4 for g in baselines)
    ok = ok and table.n_of_g == A007323
    _report(12, ok, "N(g)/N(g-1) within [1.55, 1.70] for 25 <= g <= 30 "
                    f"(observed {ratios[30]:.4f} at g = 30); "
                    "N(g) equals OEIS A007323 for g <= 30")


def test_criterion_13_structural_round_trips():
    ok = True
    for m in range(2, 7):
        for g in range(1, 13):
            for coords in sf.kunz_vectors(m, g):
                v = sf.kunz_vector(sf.semigroup_from_kunz(m, coords))
                ok = ok and (v.m, v.coords) == (m, coords)
    harvest = sf.enumerate_tree(12, collectors={"gapsets": GapSetCollector})
    for g, gapsets in harvest.extras["gapsets"].by_genus.items():
        for gaps in gapsets:
            weight, _ewt, part = sf.from_gaps(gaps).weight_data()
            ok = ok and part.size == weight + g
    _report(13, ok, "Kunz round-trip (m <= 6, sum <= 12) and partition size "
                    "= weight + genus (g <= 12)")
