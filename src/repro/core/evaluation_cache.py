"""The shared term cache of the configuration-search hot path.

The configuration search (Section 7.2) evaluates hundreds to thousands
of candidate configurations.  By the Section 5 product form and the
Section 6 marginal separation, every number the Section 7.1 goal check
reads about server type ``x`` — unavailability, performability and
failure-free waiting time, finite mass, utilization — is a function of
the type's replica count ``Y_x`` and of nothing else but the type's
spec, its total request rate ``l_x``, and the evaluator's repair
policy, degraded policy and penalty
(:class:`~repro.core.performability.TypeTerm`).  A candidate is
therefore assessed as a fold over ``k`` terms, each read from one
:class:`~repro.core.performability.TypeRow` per type.

:class:`EvaluationCache` is a bounded LRU of those rows keyed by *all*
of a term's inputs, by value.  The key carries the soundness: a model
with a moved service time, failure rate, or request rate asks for a
different row, so one cache may be shared by any number of evaluators,
models and recalibrations without binding or invalidating anything.
Whole goal assessments are memoized per
:class:`~repro.core.goals.GoalEvaluator`, not here.

Complexity: without the cache, one candidate costs ``O(sum_x Y_x)``
M/G/1 evaluations; with it, a search computes each of the ``sum_x
max(Y_x)`` distinct curve points once, so ``C`` candidates drop from
``O(C * sum_x Y_x)`` to ``O(sum_x Y_x + C)`` waiting-time evaluations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Sequence

from repro import obs
from repro.core.availability import RepairPolicy
from repro.core.model_types import ServerTypeSpec
from repro.core.performability import DegradedStatePolicy, TypeRow, TypeTerm
from repro.exceptions import ValidationError

#: Bound on the rows of one cache (a row holds one type's curve and
#: terms under one set of inputs).
MAX_ROWS = 1024

#: Bound on the assessments one evaluator memoizes.
MAX_ASSESSMENTS = 4096


class BoundedCache:
    """A small LRU mapping with hit/miss/eviction observability.

    Keys must be hashable and canonical (built from values, never from
    ``id()``).  Local ``hits``/``misses``/``evictions`` counters are
    always maintained; the process-wide obs counters mirror them under
    ``evaluation_cache.<name>.*`` when observability is enabled.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        if maxsize < 1:
            raise ValidationError("cache maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """Cached value for ``key`` (LRU-touching), or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs.count(f"evaluation_cache.{self.name}.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.count(f"evaluation_cache.{self.name}.hits")
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting oldest entries when full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.count("evaluation_cache.evictions")


class EvaluationCache:
    """Per-type term rows shared across candidates, searches and models.

    Each :class:`~repro.core.goals.GoalEvaluator` creates a private
    cache by default; passing one instance to several evaluators (one
    per search algorithm in a benchmark, or one per recalibration of a
    long-running service) extends the reuse to every type whose inputs
    did not move.  Rows are keyed by ``(ServerTypeSpec, total request
    rate, repair policy, degraded policy, penalty)`` and bounded to
    :data:`MAX_ROWS` in LRU order.  Rows grow in place, so threads that
    share a cache must serialize their searches (the service runs each
    one under :attr:`~repro.service.worker.SearchWorker.lock`).

    ``enabled=False`` memoizes nothing: every term is rebuilt from a
    fresh row, giving the uncached reference path that the cache tests
    and ``recommend --no-evaluation-cache`` compare against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._rows = BoundedCache("rows", MAX_ROWS)
        self.term_hits = 0
        self.term_misses = 0

    def row(
        self,
        spec: ServerTypeSpec,
        total: float,
        repair_policy: RepairPolicy,
        degraded_policy: DegradedStatePolicy,
        penalty_waiting_time: float | None,
    ) -> TypeRow:
        """The row of these term inputs, shared while it stays cached."""
        key = (
            spec, total, repair_policy, degraded_policy, penalty_waiting_time
        )
        if not self.enabled:
            return TypeRow(*key)
        row = self._rows.get(key)
        if row is None:
            row = TypeRow(*key)
            self._rows.put(key, row)
        return row

    def terms(
        self, rows: Sequence[TypeRow], counts: Sequence[int]
    ) -> list[TypeTerm]:
        """The term of ``counts[i]`` replicas from each ``rows[i]``.

        Counted under ``evaluation_cache.type_terms.{hits,misses}``; a
        disabled cache builds every term on a fresh row instead.
        """
        if not self.enabled:
            return [
                TypeRow(*row.key).term(count)
                for row, count in zip(rows, counts)
            ]
        terms: list[TypeTerm] = []
        hits = 0
        for row, count in zip(rows, counts):
            term = row.terms.get(count)
            if term is None:
                term = row.term(count)
                self.term_misses += 1
                obs.count("evaluation_cache.type_terms.misses")
            else:
                hits += 1
            terms.append(term)
        if hits:
            self.term_hits += hits
            obs.count("evaluation_cache.type_terms.hits", hits)
        return terms

    def stats(self) -> dict[str, int]:
        """Counter snapshot for reports and tests."""
        return {
            "rows.size": len(self._rows),
            "rows.hits": self._rows.hits,
            "rows.misses": self._rows.misses,
            "type_terms.hits": self.term_hits,
            "type_terms.misses": self.term_misses,
            "evictions": self._rows.evictions,
        }
