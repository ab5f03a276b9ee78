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
from typing import TYPE_CHECKING

from .core import FeatureMatrix, RankingEntry, RankingResult, _Record
from .errors import (ConvergenceFailure, UnknownResponseFeature,
                     ZeroVarianceColumn)
from .numerics import _check_lam, _lasso_capped, _pow2_scaled

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

#: Relative threshold below which a column's spread counts as zero.
STD_RTOL = 1e-12

#: Default l1 penalty weight of :func:`rank_journals` and ``mirrordde rank``.
DEFAULT_LAMBDA = 0.1


class TraceStep(_Record):
    """One elimination step: who left, and the norms that decided it."""

    step_index: int
    journal_name: str
    row_norm: float
    chosen_col_norm: float
    singval: float


class EliminationTrace(_Record):
    """The full elimination history, one step per journal."""

    steps: tuple[TraceStep, ...]


def _standardized(block: NDArray[np.float64], e: list[int],
                  feature_names: tuple[str, ...]) -> NDArray[np.float64]:
    """Standardize the columns of a journals-by-features array.

    ``block`` holds each column scaled by ``2**-e`` (see
    :func:`~mirrordde.numerics._pow2_scaled`); the z-scores are those of
    the unscaled columns bit for bit, since every step commutes with a power
    of two, and the flatness rule of :func:`standardize` is decided on the
    unscaled mean and spread.  Each column of ``block`` must be contiguous
    with axis 0 the smallest stride, as in a Fortran-ordered array or a
    leading-rows view of one: then each column reduction sums the
    contiguous column in numpy's pairwise order, as a 1-d column view does,
    whereas on a C-ordered block numpy sums row by row and the last bit
    differs.  The block is only read; each statistic is reduced with
    ``np.add.reduce``, which is what ``ndarray.sum`` calls, and divided in
    place.
    """
    import numpy as np

    m = block.shape[0]
    mu = np.add.reduce(block, axis=0)
    mu /= m  # the bits of block.mean(axis=0)
    dev = block - mu
    sigma = np.add.reduce(dev * dev, axis=0)
    sigma /= m
    np.sqrt(sigma, out=sigma)
    # the rule on the k statistics as floats, with np.ldexp's decisions:
    # math.ldexp raises where np.ldexp gives inf, which takes e = 1024 and
    # a scaled |mu| or sigma of at least 1; an infinite mean makes any
    # spread flat, and an infinite spread alone is not flat
    for name, s, u, ej in zip(feature_names, sigma.tolist(), mu.tolist(), e):
        try:
            flat = (math.ldexp(s, ej)
                    <= STD_RTOL * max(1.0, math.ldexp(abs(u), ej)))
        except OverflowError:
            flat = abs(u) >= 1.0
        if flat:
            raise ZeroVarianceColumn(f"feature {name!r} has zero variance",
                                     column=name)
    if m == 2:
        # past the flat check both deviations are nonzero and opposite: ±1
        return np.sign(dev, out=dev)
    dev /= sigma
    return dev


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Center and scale every feature column to mean 0, variance 1.

    Uses the population standard deviation (divide by m, not m-1).  A column
    whose spread is at or below 1e-12 relative to its mean magnitude cannot
    be scaled and raises :class:`ZeroVarianceColumn` naming the first such
    feature.  The power-of-two-scaled copy is made in Fortran order, so that
    each column reduction is numpy's pairwise sum over the column.
    """
    import numpy as np

    scaled, e = _pow2_scaled(matrix.data, axis=0)
    out = _standardized(np.asfortranarray(scaled), e.tolist(),
                        matrix.feature_names)
    return FeatureMatrix(journal_names=matrix.journal_names,
                         feature_names=matrix.feature_names,
                         data=out)


def rank_journals(matrix: FeatureMatrix, response_feature: str,
                  lam: float = DEFAULT_LAMBDA
                  ) -> tuple[RankingResult, EliminationTrace]:
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

    The power-of-two-scaled table is copied once, in Fortran order, into a
    working buffer whose leading rows are the journals in play, in input
    order; an elimination shifts the rows below it up by one.  Each step
    standardizes a view of those rows, in which every column is still
    contiguous with the smallest stride, so each column reduction is the
    same pairwise sum as on a fresh copy of the rows, bit for bit.  Each
    regression is one call of the sweep kernel, and one ``np.errstate``
    holds numpy's overflow and invalid warnings off for the whole
    elimination, as the lasso's preparation needs; no standardization or
    norm of a finite table overflows or makes a nan.  The row norm sums the
    coefficients as Python floats left to right, in the order of
    ``s = 0.0; s += x`` (from Python 3.12 the builtin ``sum`` compensates).

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
    _check_lam(lam)
    import numpy as np

    resp_idx = matrix.feature_index(response_feature)
    pred_idx = [j for j in range(matrix.n_features) if j != resp_idx]
    n = matrix.n_features
    m = matrix.n_journals
    scaled, e = _pow2_scaled(matrix.data, axis=0)
    buf = np.asfortranarray(scaled)  # the journals in play: buf[:rows]
    e = e.tolist()
    names = matrix.journal_names

    remaining = list(range(m))
    steps: list[TraceStep] = []
    row_norm = singval = survivor_col_norm = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, m):
            rows = len(remaining)
            try:
                std = _standardized(buf[:rows], e, matrix.feature_names)
                # the block is finite with at least 2 rows, and lam is
                # checked
                coeffs = _lasso_capped(std[:, pred_idx], std[:, resp_idx],
                                       lam)
            except ZeroVarianceColumn as exc:
                raise ZeroVarianceColumn(
                    f"step {step}: {exc}", column=exc.column, step=step
                ) from exc
            except ConvergenceFailure as exc:
                raise ConvergenceFailure(f"step {step}: {exc}") from exc

            w = np.array(coeffs)
            singval = math.sqrt(float(w @ w))
            row_norm = 0.0
            for x in coeffs:
                row_norm += abs(x)
            row_norm /= n - 1

            # C order sums each row in pairwise order, as a 1-d row view
            # would
            col_norms = np.add.reduce(np.abs(std, order="C"), axis=1)
            col_norms /= n
            gaps = col_norms - row_norm
            best = int(np.abs(gaps, out=gaps).argmin())

            if step == m - 1:
                survivor_col_norm = float(col_norms[1 - best])
            steps.append(TraceStep(
                step_index=step,
                journal_name=names[remaining[best]],
                row_norm=row_norm,
                chosen_col_norm=float(col_norms[best]),
                singval=singval,
            ))
            del remaining[best]
            buf[best:rows - 1] = buf[best + 1:rows]

    # The survivor inherits the score of the last regression it was part of.
    steps.append(TraceStep(
        step_index=m,
        journal_name=names[remaining[0]],
        row_norm=row_norm,
        chosen_col_norm=survivor_col_norm,
        singval=singval,
    ))

    order = sorted(steps, key=lambda s: (s.singval, s.step_index))
    entries = tuple(
        RankingEntry(
            journal_name=s.journal_name,
            elimination_step=s.step_index,
            singval=s.singval,
            rank=rank,
        )
        for rank, s in enumerate(order, start=1)
    )
    return RankingResult(entries=entries), EliminationTrace(steps=tuple(steps))
