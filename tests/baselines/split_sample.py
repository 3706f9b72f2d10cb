"""Online-aggregation-style baseline: with-replacement epoch sampling.

Ripple joins / online aggregation estimate joins from with-replacement
samples of each input.  Their variance analysis is query-specific and
mathematically heavy (the difficulty the paper's introduction recounts),
so the robust practical variant is *split-sample* (batch-means)
estimation: run ``k`` independent epochs, each drawing fresh WR samples
and producing one unbiased estimate, then use the across-epoch spread
for the confidence interval.

Unbiasedness per epoch: a WR draw of size ``n_i`` from ``N_i`` rows
hits any fixed tuple pair ``(t, u)`` in expectation ``n₁n₂/(N₁N₂)``
times, so scaling the joined sum by ``N₁N₂/(n₁n₂)`` is unbiased for the
full join total.  The price relative to GUS: WR needs *k·n* total
sampled rows to produce *k* degrees of freedom, and the CI uses a
t-quantile on few observations — visibly wider intervals at equal
budget, which ``test_baselines.py`` checks.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import t as student_t

from repro.core.confidence import ConfidenceInterval
from repro.core.estimator import Estimate
from repro.errors import EstimationError
from repro.relational.executor import join_indices
from repro.relational.table import Table
from tests.baselines.with_replacement import WithReplacement


def _epoch_estimate(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    f_expr,
    n_left: int,
    n_right: int,
    rng: np.random.Generator,
) -> float:
    wr_left = WithReplacement(n_left)
    wr_right = WithReplacement(n_right)
    li = wr_left.draw_indices(left.n_rows, rng)
    ri = wr_right.draw_indices(right.n_rows, rng)
    left_s = left.take(li)
    right_s = right.take(ri)
    ji, jj = join_indices(left_s.column(left_key), right_s.column(right_key))
    if ji.size == 0:
        return 0.0
    combined = Table(
        None,
        {
            **{n: arr[ji] for n, arr in left_s.columns.items()},
            **{n: arr[jj] for n, arr in right_s.columns.items()},
        },
    )
    f = np.asarray(f_expr.eval(combined), dtype=np.float64)
    scale = (left.n_rows / n_left) * (right.n_rows / n_right)
    return float(f.sum()) * scale


def split_sample_join_estimate(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    f_expr,
    *,
    n_left: int,
    n_right: int,
    epochs: int = 10,
    rng: np.random.Generator | None = None,
) -> tuple[Estimate, ConfidenceInterval]:
    """Split-sample estimate of ``Σ f`` over an equi-join.

    Draws ``epochs`` independent WR sample pairs (sizes ``n_left`` /
    ``n_right``), averages the per-epoch estimates, and returns both the
    :class:`Estimate` (with the across-epoch variance of the mean) and
    the t-distribution 95% interval the method would report.
    """
    if epochs < 2:
        raise EstimationError("split-sample needs at least 2 epochs")
    rng = rng if rng is not None else np.random.default_rng()
    values = np.array(
        [
            _epoch_estimate(
                left, right, left_key, right_key, f_expr, n_left, n_right, rng
            )
            for _ in range(epochs)
        ]
    )
    mean = float(values.mean())
    var_of_mean = float(values.var(ddof=1)) / epochs
    est = Estimate(
        value=mean,
        variance_raw=var_of_mean,
        n_sample=epochs * (n_left + n_right),
        label="split-sample-WR",
        extras={"epochs": epochs, "epoch_values": values.tolist()},
    )
    half = float(student_t.ppf(0.975, epochs - 1)) * float(
        np.sqrt(var_of_mean)
    )
    ci = ConfidenceInterval(mean - half, mean + half, 0.95, "t")
    return est, ci
