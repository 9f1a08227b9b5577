"""The ``APtoObjHT`` hash table (paper Section 4.2).

Maps each anchor point to the list of objects possibly located there with
their probabilities, e.g.::

    (8.5, 6.2) -> {o1: 0.14, o3: 0.03, o7: 0.37}

The reproduction keys entries by anchor id rather than raw coordinates
(anchor ids are bijective with coordinates via the
:class:`~repro.graph.AnchorIndex`), and additionally maintains the reverse
object -> distribution map that query evaluation and metrics need.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Tuple

_object_id = itemgetter(0)


class AnchorObjectTable:
    """Bidirectional object/anchor probability table.

    Probabilities for one object are a distribution over anchor points
    (summing to 1 when the object's filter ran; callers may store partial
    mass if they choose to truncate).
    """

    def __init__(self) -> None:
        self._by_anchor: Dict[int, Dict[str, float]] = {}
        self._by_object: Dict[str, Dict[int, float]] = {}

    @classmethod
    def from_distributions(
        cls, pairs: Iterable[Tuple[str, Mapping[int, float]]]
    ) -> "AnchorObjectTable":
        """A table holding each ``(object_id, distribution)`` pair, in order.

        This is the one way to build a table. Entries with zero or
        negative mass are dropped, and a distribution left empty adds no
        object. The order is canonical: objects, and each anchor's
        bucket, in ascending object id, whatever order the pairs come
        in. So a table merged from any partitioning of its objects
        iterates, serializes and sums (kNN's running total) exactly as
        one built in a single process. Object ids must be distinct; a
        repeated id raises :class:`ValueError`.
        """
        table = cls()
        by_anchor = table._by_anchor
        by_object = table._by_object
        for object_id, distribution in sorted(pairs, key=_object_id):
            if object_id in by_object:
                raise ValueError(f"object {object_id!r} appears twice")
            cleaned = {ap: p for ap, p in distribution.items() if p > 0.0}
            if not cleaned:
                continue
            by_object[object_id] = cleaned
            for ap_id, prob in cleaned.items():
                bucket = by_anchor.get(ap_id)
                if bucket is None:
                    by_anchor[ap_id] = {object_id: prob}
                else:
                    bucket[object_id] = prob
        return table

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def at(self, ap_id: int) -> Dict[str, float]:
        """Objects (with probabilities) indexed at an anchor point."""
        return dict(self._by_anchor.get(ap_id, {}))

    def distribution_of(self, object_id: str) -> Dict[int, float]:
        """An object's probability distribution over anchor points."""
        return dict(self._by_object.get(object_id, {}))

    def objects(self) -> List[str]:
        """Ids of all objects present in the table."""
        return list(self._by_object.keys())

    def anchors(self) -> List[int]:
        """Ids of all anchor points that index at least one object."""
        return list(self._by_anchor.keys())

    def has_object(self, object_id: str) -> bool:
        """True if the object has any probability mass stored."""
        return object_id in self._by_object

    def total_probability(self, object_id: str) -> float:
        """Sum of an object's stored anchor masses (1.0 when complete)."""
        return sum(self._by_object.get(object_id, {}).values())

    def probability_at(self, object_id: str, ap_id: int) -> float:
        """One object's probability at one anchor (0.0 when absent)."""
        return self._by_object.get(object_id, {}).get(ap_id, 0.0)

    def sum_over_anchors(self, object_id: str, ap_ids: Iterable[int]) -> float:
        """Sum an object's probability over a set of anchors."""
        dist = self._by_object.get(object_id, {})
        return sum(dist.get(ap_id, 0.0) for ap_id in ap_ids)

    def items_at(self, ap_id: int) -> List[Tuple[str, float]]:
        """``(object_id, probability)`` pairs at an anchor point."""
        return list(self._by_anchor.get(ap_id, {}).items())

    def __len__(self) -> int:
        return len(self._by_object)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnchorObjectTable(objects={len(self._by_object)}, "
            f"anchors={len(self._by_anchor)})"
        )
