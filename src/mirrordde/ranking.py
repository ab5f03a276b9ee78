"""Journal ranking by recursive elimination on standardized features.

The idea: repeatedly measure how much predictive structure the current set
of journals carries (through an l1-regularized regression of one feature on
the others), then drop the journal whose row norm is closest to the
regression's own coefficient norm — the journal that adds the least
contrast — and record the regression's singular-value score at each step.
Journals surviving longer see the score of a leaner, more concentrated
matrix; the final ranks order journals by ascending score, so rank 1 marks
the strongest individual influence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import FeatureMatrix, RankingEntry, RankingResult
from .errors import (
    ConvergenceFailure,
    UnknownResponseFeature,
    ZeroVarianceColumn,
)
from .numerics import lasso_fit

#: Relative threshold below which a column's spread counts as zero.
STD_RTOL = 1e-12


@dataclass(frozen=True)
class TraceStep:
    """One elimination step: who left, and the norms that decided it."""

    step_index: int
    journal_name: str
    row_norm: float
    chosen_col_norm: float
    singval: float

    def __post_init__(self) -> None:
        if self.step_index < 1:
            raise ValueError("step_index counts from 1")
        for name, v in (("row_norm", self.row_norm),
                        ("chosen_col_norm", self.chosen_col_norm),
                        ("singval", self.singval)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")


@dataclass(frozen=True)
class EliminationTrace:
    """The full elimination history, one step per journal."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("trace must contain at least one step")
        if [s.step_index for s in steps] != list(range(1, len(steps) + 1)):
            raise ValueError("step indices must run 1..m in order")
        names = [s.journal_name for s in steps]
        if len(set(names)) != len(names):
            raise ValueError("each journal is eliminated exactly once")


def _standardized(block: NDArray[np.float64],
                  feature_names: tuple[str, ...]) -> NDArray[np.float64]:
    """Standardize the columns of a journals-by-features array.

    Checks and rounding are those of :func:`standardize`.  The block is
    copied to Fortran order first: there each column reduction sums the
    contiguous column in numpy's pairwise order, as a 1-d column view does,
    whereas on a C-ordered block numpy sums row by row and the last bit
    differs.
    """
    block = np.asfortranarray(block)
    mu = block.mean(axis=0)
    sigma = np.sqrt(((block - mu) ** 2).mean(axis=0))
    flat = sigma <= STD_RTOL * np.maximum(1.0, np.abs(mu))
    if flat.any():
        name = feature_names[int(flat.argmax())]
        raise ZeroVarianceColumn(f"feature {name!r} has zero variance",
                                 column=name)
    return (block - mu) / sigma


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Center and scale every feature column to mean 0, variance 1.

    Uses the population standard deviation (divide by m, not m-1).  A column
    whose spread is at or below 1e-12 relative to its mean magnitude cannot
    be scaled and raises :class:`ZeroVarianceColumn` naming the first such
    feature.
    """
    out = _standardized(matrix.data, matrix.feature_names)
    return FeatureMatrix(journal_names=matrix.journal_names,
                         feature_names=matrix.feature_names,
                         data=out)


def rank_journals(matrix: FeatureMatrix, response_feature: str,
                  lam: float = 0.1) -> tuple[RankingResult, EliminationTrace]:
    """Rank journals by recursive norm-matching elimination.

    Each iteration, on the journals still in play:

    1. standardize the submatrix column-wise;
    2. regress the response feature on the remaining features with an
       l1 penalty ``lam`` (coefficients of the n-1 predictor columns);
    3. score the coefficient row by its singular value (for one row, its
       Euclidean norm) and record the mean absolute coefficient (the row
       norm);
    4. give every journal a column norm — the mean absolute value of its
       standardized feature row — and eliminate the journal whose column
       norm is closest to the row norm, preferring the lowest current row
       index on ties.

    The last journal standing is assigned the final step with the score
    carried over from the last executed regression.  Ranks sort by
    ascending score, ties broken by the earlier elimination step.

    Returns the ranking together with the full elimination trace.  A
    feature column going flat mid-elimination raises
    :class:`ZeroVarianceColumn`, and a regression that does not converge
    raises :class:`ConvergenceFailure`; both messages start with the step.
    """
    if response_feature not in matrix.feature_names:
        raise UnknownResponseFeature(
            f"response feature {response_feature!r} is not one of "
            f"{list(matrix.feature_names)}"
        )
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be non-negative and finite, got {lam!r}")
    resp_idx = matrix.feature_index(response_feature)
    pred_idx = [j for j in range(matrix.n_features) if j != resp_idx]
    n = matrix.n_features
    m = matrix.n_journals
    data = matrix.data
    names = matrix.journal_names

    remaining = list(range(m))
    steps: list[TraceStep] = []
    singval_by_journal: dict[int, float] = {}
    step_by_journal: dict[int, int] = {}
    last_singval = 0.0
    last_row_norm = 0.0
    survivor_col_norm = 0.0

    step = 0
    while len(remaining) > 1:
        step += 1
        try:
            std = _standardized(data[remaining], matrix.feature_names)
            coeffs = lasso_fit(std[:, pred_idx], std[:, resp_idx], lam)
        except ZeroVarianceColumn as exc:
            raise ZeroVarianceColumn(
                f"step {step}: {exc}", column=exc.column, step=step
            ) from exc
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"step {step}: {exc}") from exc

        w = np.array(coeffs)
        singval = math.sqrt(float(w @ w))
        row_norm = sum(abs(c) for c in coeffs) / (n - 1)

        # C order sums each row in pairwise order, as a 1-d row view would
        col_norms = np.abs(std, order="C").sum(axis=1) / n
        best = int(np.argmin(np.abs(col_norms - row_norm)))

        if len(remaining) == 2:
            survivor_col_norm = float(col_norms[1 - best])
        journal = remaining.pop(best)
        singval_by_journal[journal] = singval
        step_by_journal[journal] = step
        steps.append(TraceStep(
            step_index=step,
            journal_name=names[journal],
            row_norm=row_norm,
            chosen_col_norm=float(col_norms[best]),
            singval=singval,
        ))
        last_singval = singval
        last_row_norm = row_norm

    # The survivor inherits the score of the last regression it was part of.
    survivor = remaining[0]
    singval_by_journal[survivor] = last_singval
    step_by_journal[survivor] = m
    steps.append(TraceStep(
        step_index=m,
        journal_name=names[survivor],
        row_norm=last_row_norm,
        chosen_col_norm=survivor_col_norm,
        singval=last_singval,
    ))

    order = sorted(range(m),
                   key=lambda i: (singval_by_journal[i], step_by_journal[i]))
    entries = tuple(
        RankingEntry(
            journal_name=names[i],
            elimination_step=step_by_journal[i],
            singval=singval_by_journal[i],
            rank=rank,
        )
        for rank, i in enumerate(order, start=1)
    )
    return RankingResult(entries=entries), EliminationTrace(steps=tuple(steps))
