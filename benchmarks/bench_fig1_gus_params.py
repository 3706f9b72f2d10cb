"""Figure 1: GUS parameters of known sampling methods.

Reproduces the paper's Figure 1 table — Bernoulli(p) and WOR(n, N) GUS
parameters — twice over: (a) the closed forms implemented by the
library, asserted digit-for-digit against the table, and (b) an
empirical Monte-Carlo measurement of the actual sampling operators'
first- and second-order inclusion probabilities, confirming the
implementations realize the parameters they claim.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling import Bernoulli, WithoutReplacement


def _empirical_inclusions(method, n_rows: int, trials: int, seed: int):
    """Measure P[t ∈ S] and P[t, t' ∈ S] (distinct pair) by simulation."""
    rng = np.random.default_rng(seed)
    single = 0
    pair = 0
    for _ in range(trials):
        # Kept positions ascend: rows 0 and 1 are kept iff they lead.
        first = set(method.draw(n_rows, rng).rows[:2].tolist())
        single += 0 in first
        pair += {0, 1} <= first
    return single / trials, pair / trials


class TestFigure1Bernoulli:
    P = 0.3

    def test_closed_form(self, benchmark, repro_report):
        g = benchmark(lambda: Bernoulli(self.P).gus("R", 1000))
        repro_report.add("Fig 1", "Bernoulli a", "p", f"{g.a:.3f}")
        repro_report.add(
            "Fig 1", "Bernoulli b_∅", "p²", f"{g.b_of([]):.3f}"
        )
        assert g.a == pytest.approx(self.P)
        assert g.b_of([]) == pytest.approx(self.P**2)
        assert g.b_of(["R"]) == pytest.approx(self.P)

    def test_empirical(self, benchmark, repro_report):
        a_hat, b_hat = _empirical_inclusions(
            Bernoulli(self.P), 100, trials=20_000, seed=1
        )
        assert a_hat == pytest.approx(self.P, abs=0.015)
        assert b_hat == pytest.approx(self.P**2, abs=0.015)
        repro_report.add(
            "Fig 1",
            "Bernoulli MC (a, b_∅)",
            f"({self.P}, {self.P ** 2:.3f})",
            f"({a_hat:.3f}, {b_hat:.3f})",
        )
        rng = np.random.default_rng(0)
        benchmark(lambda: Bernoulli(self.P).draw(100_000, rng))


class TestFigure1WOR:
    N_SAMPLE, N_POP = 30, 100

    def test_closed_form(self, benchmark, repro_report):
        g = benchmark(
            lambda: WithoutReplacement(self.N_SAMPLE).gus("R", self.N_POP)
        )
        expected_b = (
            self.N_SAMPLE
            * (self.N_SAMPLE - 1)
            / (self.N_POP * (self.N_POP - 1))
        )
        repro_report.add("Fig 1", "WOR a", "n/N", f"{g.a:.3f}")
        repro_report.add(
            "Fig 1",
            "WOR b_∅",
            "n(n−1)/N(N−1)",
            f"{g.b_of([]):.4f}",
        )
        assert g.a == pytest.approx(self.N_SAMPLE / self.N_POP)
        assert g.b_of([]) == pytest.approx(expected_b)
        assert g.b_of(["R"]) == pytest.approx(g.a)

    def test_empirical(self, benchmark, repro_report):
        a_hat, b_hat = _empirical_inclusions(
            WithoutReplacement(self.N_SAMPLE),
            self.N_POP,
            trials=20_000,
            seed=2,
        )
        expected_b = (
            self.N_SAMPLE
            * (self.N_SAMPLE - 1)
            / (self.N_POP * (self.N_POP - 1))
        )
        assert a_hat == pytest.approx(0.3, abs=0.015)
        assert b_hat == pytest.approx(expected_b, abs=0.015)
        repro_report.add(
            "Fig 1",
            "WOR MC (a, b_∅)",
            f"(0.300, {expected_b:.4f})",
            f"({a_hat:.3f}, {b_hat:.4f})",
        )
        rng = np.random.default_rng(0)
        benchmark(
            lambda: WithoutReplacement(10_000).draw(100_000, rng)
        )


class TestExample2PaperValues:
    """Example 2's printed numbers for the Query 1 operators."""

    def test_bernoulli_lineitem(self, benchmark, repro_report):
        g = benchmark(lambda: Bernoulli(0.1).gus("l", 60_000))
        repro_report.add(
            "Ex 2", "B(0.1): (a, b_∅)", "(0.1, 0.01)",
            f"({g.a:.3g}, {g.b_of([]):.3g})",
        )
        assert g.a == pytest.approx(0.1)
        assert g.b_of([]) == pytest.approx(0.01)

    def test_wor_orders(self, benchmark, repro_report):
        g = WithoutReplacement(1000).gus("o", 150_000)
        repro_report.add(
            "Ex 2", "WOR(1000/150k): (a, b_∅)",
            "(6.667e-3, 4.44e-5)",
            f"({g.a:.4g}, {g.b_of([]):.3g})",
        )
        assert g.a == pytest.approx(6.667e-3, rel=1e-3)
        assert g.b_of([]) == pytest.approx(4.44e-5, rel=1e-2)
        benchmark(
            lambda: WithoutReplacement(1000).gus("o", 150_000)
        )
