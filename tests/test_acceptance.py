"""Acceptance suite: every release-gating check at its stated tolerance.

Each test prints one PASS/FAIL line.  Criteria 1, 2, 3 and 6 run the same
check functions as `boardpile verify`.  The audit check at the bottom relies
on the session-wide firing audit installed in conftest, so this module is
meaningful both alone and as part of the full run.
"""

import random
import time
from contextlib import contextmanager

import pytest

from boardpile import cli
from boardpile.bijection import config_to_poly, poly_to_config
from boardpile.counting import (
    asymptotic_constant,
    asymptotic_estimate,
    brute_force_labelled,
    brute_force_period_multisets,
    characteristic_roots,
    recurrence_counts,
)
from boardpile.diffusion import detect_period, fire
from boardpile.graphs import Graph, path
from boardpile.polyomino import enumerate_board_pile


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


def test_criterion_1_count_table_three_ways():
    with criterion(
        1, "recurrence, series, top-block count and enumeration give the first eleven counts"
    ):
        started = time.monotonic()
        ok, detail = cli.verify_count_agreement(11)
        assert ok, detail
        assert time.monotonic() - started < 10.0


def test_criterion_2_image_equals_periodic_multisets():
    with criterion(2, "strip images equal the fire-twice scan for n <= 7, as sets"):
        started = time.monotonic()
        ok, detail = cli.verify_image(7)
        assert ok, detail
        assert time.monotonic() - started < 120.0


def test_criterion_3_firing_matches_reflection():
    with criterion(3, "firing the image equals reflecting the polyomino, <= 9 cells"):
        ok, detail = cli.verify_fire_reflect(9)
        assert ok, detail
        assert detail == "9397 polyominoes with up to 9 cells"


def test_criterion_4_round_trips():
    with criterion(4, "both round trips are the identity on their domains"):
        for n in range(1, 10):
            for x in enumerate_board_pile(n):
                assert config_to_poly(poly_to_config(x)) == x
        for n in range(1, 8):
            for ms in brute_force_period_multisets(n):
                assert poly_to_config(config_to_poly(ms)) == ms


def test_criterion_5_period_length_randomized():
    with criterion(5, "1000 random trajectories report period 1 or 2; fixture exact"):
        rng = random.Random(20260808)
        for _ in range(1000):
            n = rng.randint(1, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            density = rng.random()
            g = Graph(n, [e for e in pairs if rng.random() < density])
            stacks = tuple(rng.randint(-10, 10) for _ in range(n))
            report = detect_period(g, stacks)
            assert report.period in (1, 2)
            for i, cfg in enumerate(report.period_configs):
                assert fire(g, cfg) == report.period_configs[(i + 1) % report.period]
        fixture = detect_period(path(5), (0, 2, 0, 4, 1))
        assert (fixture.preperiod, fixture.period) == (3, 2)


def test_criterion_6_labelled_formula_matches_scan():
    with criterion(6, "labelled transfer-matrix count equals the labelled scan, n <= 5"):
        started = time.monotonic()
        assert brute_force_labelled(2) == 3
        assert brute_force_labelled(3) == 19
        ok, detail = cli.verify_labelled(5)
        assert ok, detail
        assert time.monotonic() - started < 120.0


def test_criterion_7_asymptotics():
    with criterion(7, "dominant root, its coefficient, and the 1% tail estimate"):
        assert abs(characteristic_roots()[0] - 3.2056) < 1e-4
        assert abs(asymptotic_constant() - 0.1809) < 5e-4
        exact = recurrence_counts(30)
        for n in range(8, 31):
            rel = abs(asymptotic_estimate(n) - exact[n - 1]) / exact[n - 1]
            assert rel < 0.01, f"n={n}: relative error {rel}"


def test_criterion_8_firing_audit_clean(fire_audit):
    with criterion(8, "conservation and shift equivariance held on every audited fire"):
        assert fire_audit.calls > 0
        assert fire_audit.violations == 0


def test_fire_audit_raises_on_step_that_loses_a_chip(fire_audit):
    audit = type(fire_audit)()  # a fresh audit, so the session tally stays clean
    leaky = audit.wrap(lambda values: values[:-1] + (values[-1] - 1,))
    with pytest.raises(AssertionError, match="chip conservation violated: 3 chips in, 2 out"):
        leaky((0, 1, 2))
    assert (audit.calls, audit.violations) == (1, 1)
