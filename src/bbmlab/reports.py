"""Convergence reports for parameter-ladder studies.

A report records one functional value per ladder entry, an optional
limit, and a classification:

* ``converging``: errors (or increments, when no limit is known) shrink
  on at least 75% of consecutive pairs and the final one is below the
  study tolerance ``DEFAULT_STUDY_RTOL``.  Ties count as non-increase so
  that exactly-zero error sequences classify correctly.
* ``diverging``: the values grow by at least ``DEFAULT_GROWTH_FACTOR``
  over some window of ``DEFAULT_GROWTH_WINDOW`` consecutive increasing
  pairs.  The factor
  is cumulative over the window: near-threshold divergent integrals grow
  unboundedly but with per-pair ratios tending to 1, so a per-pair test
  cannot detect them at any ladder depth.
* ``stalled``: neither of the above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

DEFAULT_STUDY_RTOL = 2e-2
DEFAULT_GROWTH_FACTOR = 1.5
DEFAULT_GROWTH_WINDOW = 4

_TIE = 1e-12
_ERROR_FLOOR = 1e-9


def _fraction_nonincreasing(seq, floor: float = 0.0) -> float:
    pairs = len(seq) - 1
    if pairs <= 0:
        return 1.0
    # errors at the numerical floor are ties, not increases
    eff = [max(v, floor) for v in seq]
    good = sum(1 for a, b in zip(eff[:-1], eff[1:])
               if b <= a * (1.0 + _TIE) + 1e-300)
    return good / pairs


def _has_growth_window(values, factor: float, window: int) -> bool:
    n = len(values)
    for i in range(n - window):
        seg = values[i:i + window + 1]
        if any(b <= a for a, b in zip(seg[:-1], seg[1:])):
            continue
        if seg[0] > 0 and seg[-1] / seg[0] >= factor:
            return True
    return False


def classify_sequence(values: Sequence[float], limit: Optional[float] = None) -> str:
    """Classify a ladder of values as converging / diverging / stalled.

    With a limit, convergence is judged on absolute errors and the final
    error relative to the limit (absolute when the limit is zero).
    Without one, it is judged on consecutive increments, Cauchy-style.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return "stalled"
    if limit is not None:
        errors = [abs(v - limit) for v in vals]
        scale = max(abs(limit), max(abs(v) for v in vals), 1e-300)
        final = errors[-1] / abs(limit) if limit != 0.0 else errors[-1]
        if (_fraction_nonincreasing(errors, _ERROR_FLOOR * scale) >= 0.75
                and final < DEFAULT_STUDY_RTOL):
            return "converging"
    else:
        increments = [abs(b - a) for a, b in zip(vals[:-1], vals[1:])]
        # scale by the sequence's own magnitude: ladders decaying
        # geometrically to zero must still be able to classify
        scale = max(max(abs(v) for v in vals), 1e-300)
        if (_fraction_nonincreasing(increments, _ERROR_FLOOR * scale) >= 0.75
                and increments[-1] / scale < DEFAULT_STUDY_RTOL):
            return "converging"
    if _has_growth_window(vals, DEFAULT_GROWTH_FACTOR, DEFAULT_GROWTH_WINDOW):
        return "diverging"
    return "stalled"


@dataclass
class ConvergenceReport:
    """Per-ladder-entry values of a functional with error bookkeeping."""

    labels: list[str]
    params: list[float]
    values: list[float]
    limit: Optional[float] = None
    classification: str = field(init=False)

    # the classification rule's constants, for readers of a report
    rel_tol = DEFAULT_STUDY_RTOL
    growth_factor = DEFAULT_GROWTH_FACTOR
    growth_window = DEFAULT_GROWTH_WINDOW

    def __post_init__(self):
        self.classification = classify_sequence(self.values, self.limit)

    @property
    def abs_errors(self) -> list[Optional[float]]:
        if self.limit is None:
            return [None] * len(self.values)
        return [abs(v - self.limit) for v in self.values]

    @property
    def rel_errors(self) -> list[Optional[float]]:
        if self.limit is None or self.limit == 0.0:
            return [None] * len(self.values)
        return [abs(v - self.limit) / abs(self.limit) for v in self.values]

    def rows(self):
        for i, (label, param, value, ae, re_) in enumerate(
                zip(self.labels, self.params, self.values,
                    self.abs_errors, self.rel_errors)):
            yield (i, param, value, self.limit, ae, re_)

    def to_json(self) -> dict:
        return {
            "labels": list(self.labels),
            "params": [float(p) for p in self.params],
            "values": [float(v) for v in self.values],
            "limit": None if self.limit is None else float(self.limit),
            "classification": self.classification,
        }

