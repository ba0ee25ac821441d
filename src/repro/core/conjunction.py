"""Conjunctions of linear constraints (convex-polytope queries).

Section 1.1 of the paper observes that "several complex queries can be
viewed as reporting all points lying within a given convex query region",
i.e. an intersection of halfspace queries.  This module provides the small
piece of public API that turns a list of :class:`LinearConstraint` /
``normal . x <= offset`` conditions into a convex polytope and evaluates it
against an index:

* every cell tree (:class:`~repro.core.partition_tree.CellTreeIndex`:
  the partition, shallow and hybrid trees, the R-tree and the quad-tree)
  walks the polytope in the one descent it walks a constraint with
  (Section 5, Remark i);
* any other index answers the conjunction's first constraint — the
  engine's planner puts the conjunct it priced, the most selective one,
  first (:meth:`ConstraintConjunction.led_by`) — and the polytope masks
  its output, which is correct for every index and costs one halfspace
  query.

The polytope's facets are the constraints themselves
(:meth:`ConstraintConjunction.to_polytope`), so every index — walk or
mask — decides membership by each conjunct's ``below`` fold, and every
kind reports the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.core.partition_tree import CellTreeIndex
from repro.geometry.primitives import LinearConstraint
from repro.geometry.simplex import Halfspace, Simplex


@dataclass(frozen=True)
class ConstraintConjunction:
    """A conjunction (AND) of linear constraints over the same dimension."""

    constraints: Tuple[LinearConstraint, ...]
    extra_halfspaces: Tuple[Halfspace, ...] = ()

    @classmethod
    def of(cls, *constraints: LinearConstraint) -> "ConstraintConjunction":
        """Build a conjunction from individual constraints."""
        if not constraints:
            raise ValueError("a conjunction needs at least one constraint")
        dimensions = {constraint.dimension for constraint in constraints}
        if len(dimensions) != 1:
            raise ValueError("all constraints must share one dimension, got %r"
                             % sorted(dimensions))
        return cls(constraints=tuple(constraints))

    def and_halfspace(self, normal: Sequence[float],
                      offset: float) -> "ConstraintConjunction":
        """Add a raw halfspace ``normal . x <= offset`` (any orientation)."""
        halfspace = Halfspace(normal=tuple(float(v) for v in normal),
                              offset=float(offset))
        return ConstraintConjunction(constraints=self.constraints,
                                     extra_halfspaces=self.extra_halfspaces + (halfspace,))

    def led_by(self, lead: LinearConstraint) -> "ConstraintConjunction":
        """The same conjunction with its conjunct ``lead`` first: the one
        an index outside the cell-tree walk answers."""
        rest = list(self.constraints)
        rest.remove(lead)
        return replace(self, constraints=(lead, *rest))

    @property
    def dimension(self) -> int:
        """Ambient dimension of the conjunction."""
        return self.constraints[0].dimension

    def to_polytope(self) -> Simplex:
        """The conjunction as an intersection of halfspaces: its
        constraints themselves, then its raw halfspaces, as facets.

        A conjunct is not rewritten as ``-a . x + x_d <= a_0``: that is a
        second rounding of the same halfspace.  As a facet it tests a
        point with ``below`` and a box with its box form, so a point is
        in the conjunction's answer iff every conjunct's ``below`` admits
        it (and every raw halfspace contains it).
        """
        return Simplex(halfspaces=self.constraints + self.extra_halfspaces)


def query_conjunction(index: ExternalIndex,
                      conjunction: ConstraintConjunction) -> np.ndarray:
    """Report every point of ``index`` satisfying the conjunction.

    A cell tree walks the polytope (Section 5, Remark i); any other
    index answers the first constraint and the polytope masks its
    matrix — the same facets' point folds either way.
    """
    if conjunction.dimension != index.dimension:
        raise ValueError("conjunction dimension %d does not match index "
                         "dimension %d" % (conjunction.dimension, index.dimension))
    polytope = conjunction.to_polytope()
    if isinstance(index, CellTreeIndex):
        return index.query(polytope)
    candidates = index.query(conjunction.constraints[0])
    keep = polytope.contains_many(candidates)
    return kernels.answer_matrix((candidates.compress(keep, axis=0),),
                                 conjunction.dimension)
