"""Shared evaluation caches for the configuration-search hot path.

The configuration search (Section 7.2) evaluates hundreds to thousands
of candidate configurations, and every evaluation re-runs the same three
building blocks: per-type birth-death availability marginals (Section
5), per-type M/G/1 waiting times (Section 4.4), and the goal assessment
that combines them (Section 7.1).  Three structural facts make
aggressive cross-candidate reuse sound:

* the waiting time ``w_x(n)`` of server type ``x`` with ``n`` running
  replicas depends only on ``n``, the type's service-time moments, and
  the fixed workload — *not* on the replica counts of the other types —
  so one waiting-time *curve* per type serves every candidate of a
  search (and every search over the same workload);
* the per-type availability marginal depends only on ``(spec, count,
  repair policy)``, so the birth-death solve for "3 app servers" is the
  same in every candidate that has 3 app servers;
* the §5 product form and the §6 marginal separation make every number
  the goal check reads about type ``x`` — unavailability, performability
  and failure-free waiting time, finite mass, utilization — a function
  of ``Y_x`` alone (:class:`~repro.core.performability.TypeTerm`), so a
  candidate is assessed as a fold over ``k`` cached terms.

:class:`EvaluationCache` holds these shared results plus a bounded LRU
cache of full :class:`~repro.core.goals.GoalAssessment` objects keyed by
the *values* of the configuration and the goals (never by object
identity — see the ``id(goals)`` aliasing bug this module replaced).
All keys are explicit and canonical; a cache is bound to one performance
model via :func:`model_fingerprint`, and binding a different model
raises instead of silently serving stale curves.

Complexity: without the cache, one marginal performability evaluation
costs ``O(sum_x Y_x)`` M/G/1 evaluations *per candidate*; with the
cache, the whole search computes each of the ``sum_x max(Y_x)`` distinct
curve points exactly once, so ``C`` candidates drop from ``O(C *
sum_x Y_x)`` to ``O(sum_x Y_x + C)`` waiting-time evaluations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

import numpy as np

from repro import obs
from repro.core.availability import RepairPolicy, ServerPoolAvailability
from repro.core.model_types import ServerTypeSpec
from repro.core.performability import DegradedStatePolicy, TypeTerm, type_term
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.performance import PerformanceModel

#: Default bound on cached goal assessments (the largest objects).
DEFAULT_MAX_ASSESSMENTS = 4096

#: Default bound on cached per-pool birth-death marginals.
DEFAULT_MAX_POOL_MARGINALS = 1024


def model_fingerprint(performance: "PerformanceModel") -> tuple:
    """Canonical identity of a performance model's fixed inputs.

    Two models with identical server-type parameters and identical
    per-type total request rates produce identical waiting-time curves,
    so their evaluators may safely share one :class:`EvaluationCache`.
    """
    totals = performance.total_request_rates()
    return (
        tuple(performance.server_types.specs),
        tuple(float(value) for value in totals),
    )


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

    def items(self) -> list[tuple[Hashable, Any]]:
        """Entries in LRU order (oldest first), for re-keying on rebind."""
        return list(self._entries.items())

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting oldest entries when full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.count("evaluation_cache.evictions")

    def clear(self) -> None:
        """Drop every cached entry."""
        self._entries.clear()


class EvaluationCache:
    """Caches shared across all candidates of a configuration search.

    One instance is created per :class:`~repro.core.goals.GoalEvaluator`
    by default; passing the same instance to several evaluators (e.g.
    one per search algorithm in a benchmark, or a warm cache kept across
    CLI invocations of a long-running service) extends the reuse across
    searches.  The cache is bound to the first performance model it sees
    (via :func:`model_fingerprint`); using it with a model that has a
    different workload or server landscape raises
    :class:`~repro.exceptions.ValidationError` — stale reuse is a
    correctness bug, so invalidation is explicit (:meth:`clear`).

    ``enabled=False`` turns every lookup into a miss and every store
    into a no-op, giving the uncached reference path that the cache
    tests and ``benchmarks/bench_search.py`` compare against.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_assessments: int = DEFAULT_MAX_ASSESSMENTS,
        max_pool_marginals: int = DEFAULT_MAX_POOL_MARGINALS,
    ) -> None:
        self.enabled = enabled
        self._fingerprint: tuple | None = None
        self._assessments = BoundedCache("assessments", max_assessments)
        self._pools = BoundedCache("pool_marginals", max_pool_marginals)
        #: Per-type waiting-time curves, name -> list of w_x(n) for
        #: n = 0..len-1; grown monotonically, never evicted (a curve
        #: holds one float per admissible replica count).
        self._curves: dict[str, list[float]] = {}
        #: Per-(type, count, policies) terms; like the curves, a few
        #: entries per admissible replica count and never evicted.
        self._terms: dict[tuple, TypeTerm] = {}
        self.term_hits = 0
        self.term_misses = 0
        self.curve_hits = 0
        self.curve_misses = 0
        self.curve_points_computed = 0
        self.invalidations = 0
        self.rebinds = 0

    # ------------------------------------------------------------------
    # Binding and invalidation
    # ------------------------------------------------------------------
    def bind(self, fingerprint: tuple) -> None:
        """Tie the cache to one performance model's fixed inputs.

        Binding the same fingerprint again is a no-op; binding a
        different one raises (the caller should use a separate cache or
        :meth:`clear` this one explicitly).
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint
            return
        if self._fingerprint != fingerprint:
            raise ValidationError(
                "evaluation cache is bound to a different performance "
                "model (workload or server types differ); use a fresh "
                "EvaluationCache or clear() this one first"
            )

    @property
    def fingerprint(self) -> tuple | None:
        """The bound model fingerprint (``None`` when unbound)."""
        return self._fingerprint

    def clear(self) -> None:
        """Drop every cached result and the model binding."""
        self._fingerprint = None
        self._assessments.clear()
        self._pools.clear()
        self._curves.clear()
        self._terms.clear()

    def invalidate(self, reason: str = "") -> None:
        """Drop everything — including the model fingerprint — on drift.

        The continuous-monitoring loop calls this when a drift detector
        confirms that the calibrated parameters behind the bound model
        no longer describe the running system: every cached curve,
        marginal, and assessment was computed from stale inputs, so the
        next search must re-evaluate against freshly calibrated models.
        Unlike :meth:`clear`, the invalidation is counted (locally and
        under ``evaluation_cache.invalidations``) and traced.
        """
        self.clear()
        self.invalidations += 1
        obs.count("evaluation_cache.invalidations")
        obs.event("evaluation_cache.invalidated", reason=reason)

    def rebind(self, fingerprint: tuple, reason: str = "") -> dict[str, int]:
        """Re-bind the cache to a drifted model, keeping still-valid entries.

        The continuous loop's incremental alternative to
        :meth:`invalidate`: when calibration drift changes *some* server
        types' service moments or request totals, entries derived only
        from unchanged inputs are still bitwise-correct and are kept:

        * a waiting-time curve survives iff its type's service moments
          and total request rate are unchanged — ``w_x(n)`` is a pure
          function of exactly those inputs;
        * a pool marginal survives iff its type's failure and repair
          rates are unchanged (the birth-death chain never reads the
          service moments); it is re-keyed under the new spec so future
          lookups hit, with its already-solved steady-state vector
          carried over;
        * type terms are always dropped; they are rebuilt from the
          surviving curves and marginals on first use;
        * goal assessments are always dropped: each combines waiting
          times and marginals across *all* types, and clearing them also
          keeps a search's ``evaluations`` accounting identical to a
          cold run against the re-calibrated model.

        Rebinding an unbound cache degenerates to :meth:`bind`;
        rebinding the identical fingerprint keeps everything.  Returns
        kept/dropped entry counts for observability and tests.
        """
        if self._fingerprint is None or self._fingerprint == fingerprint:
            self._fingerprint = fingerprint
            return {
                "curves_kept": len(self._curves),
                "curves_dropped": 0,
                "pools_kept": len(self._pools),
                "pools_dropped": 0,
                "assessments_dropped": 0,
            }
        old_specs, old_totals = self._fingerprint
        new_specs, new_totals = fingerprint
        old_by_name = {
            spec.name: (spec, total)
            for spec, total in zip(old_specs, old_totals)
        }
        new_by_name = {
            spec.name: (spec, total)
            for spec, total in zip(new_specs, new_totals)
        }

        curves_kept = 0
        surviving_curves: dict[str, list[float]] = {}
        for name, curve in self._curves.items():
            old = old_by_name.get(name)
            new = new_by_name.get(name)
            if old is None or new is None:
                continue
            (old_spec, old_total), (new_spec, new_total) = old, new
            if (
                old_spec.mean_service_time == new_spec.mean_service_time
                and old_spec.second_moment_service_time
                == new_spec.second_moment_service_time
                and old_total == new_total
            ):
                surviving_curves[name] = curve
                curves_kept += 1
        curves_dropped = len(self._curves) - curves_kept
        self._curves = surviving_curves

        pools_kept = 0
        pools_dropped = 0
        old_pool_entries = self._pools.items()
        self._pools.clear()
        for (old_spec, count, policy_value), pool in old_pool_entries:
            new = new_by_name.get(old_spec.name)
            if new is None:
                pools_dropped += 1
                continue
            new_spec = new[0]
            if (
                old_spec.failure_rate != new_spec.failure_rate
                or old_spec.repair_rate != new_spec.repair_rate
            ):
                pools_dropped += 1
                continue
            rekeyed = ServerPoolAvailability(
                spec=new_spec, count=count, policy=RepairPolicy(policy_value)
            )
            if "state_probabilities" in pool.__dict__:
                # Carry the already-solved marginal over; the chain
                # depends only on (failure rate, repair rate, count,
                # policy), all unchanged here.
                rekeyed.__dict__["state_probabilities"] = pool.__dict__[
                    "state_probabilities"
                ]
            self._pools.put((new_spec, count, policy_value), rekeyed)
            pools_kept += 1

        self._terms.clear()
        assessments_dropped = len(self._assessments)
        self._assessments.clear()

        self._fingerprint = fingerprint
        self.rebinds += 1
        obs.count("evaluation_cache.rebinds")
        obs.event(
            "evaluation_cache.rebound",
            reason=reason,
            curves_kept=curves_kept,
            curves_dropped=curves_dropped,
            pools_kept=pools_kept,
            pools_dropped=pools_dropped,
        )
        return {
            "curves_kept": curves_kept,
            "curves_dropped": curves_dropped,
            "pools_kept": pools_kept,
            "pools_dropped": pools_dropped,
            "assessments_dropped": assessments_dropped,
        }

    def clear_assessments(self) -> int:
        """Drop cached goal assessments, keeping curves and marginals.

        The recommendation pipeline calls this before every published
        search so its ``evaluations`` accounting matches a cold run
        exactly — warm curves and pool marginals are pure value caches
        that leave the document unchanged, but a warm assessment would
        skip an ``evaluation_count`` increment.  Returns the number of
        dropped assessments.
        """
        dropped = len(self._assessments)
        self._assessments.clear()
        return dropped

    # ------------------------------------------------------------------
    # Goal assessments
    # ------------------------------------------------------------------
    def assessment(self, key: Hashable) -> Any | None:
        """Cached goal assessment for ``key`` (``None`` on miss/disabled)."""
        if not self.enabled:
            return None
        return self._assessments.get(key)

    def store_assessment(self, key: Hashable, value: Any) -> None:
        """Cache a goal assessment under ``key`` (no-op when disabled)."""
        if self.enabled:
            self._assessments.put(key, value)

    # ------------------------------------------------------------------
    # Per-pool birth-death marginals
    # ------------------------------------------------------------------
    def pool(
        self,
        spec: ServerTypeSpec,
        count: int,
        policy: RepairPolicy,
    ) -> ServerPoolAvailability:
        """The birth-death chain of one replicated pool, shared.

        The returned :class:`ServerPoolAvailability` lazily computes its
        steady-state marginal once; every candidate configuration with
        the same ``(spec, count, policy)`` then reuses it.
        """
        if not self.enabled:
            return ServerPoolAvailability(
                spec=spec, count=count, policy=policy
            )
        key = (spec, count, policy.value)
        pool = self._pools.get(key)
        if pool is None:
            pool = ServerPoolAvailability(
                spec=spec, count=count, policy=policy
            )
            self._pools.put(key, pool)
        return pool

    # ------------------------------------------------------------------
    # Per-type waiting-time curves
    # ------------------------------------------------------------------
    def waiting_curve(
        self,
        server_type: str,
        up_to: int,
        compute: Callable[[int], float],
    ) -> np.ndarray:
        """The curve ``w_x(n)`` for ``n = 0..up_to`` of one type.

        Missing points are computed with ``compute(n)`` and appended;
        points computed for a smaller candidate are prefixes of larger
        ones, so curves only ever grow.  Returns a fresh array (callers
        may not mutate cached state).
        """
        if not self.enabled:
            return np.array(
                [compute(n) for n in range(up_to + 1)], dtype=float
            )
        curve = self._curves.setdefault(server_type, [])
        if len(curve) > up_to:
            self.curve_hits += 1
            obs.count("evaluation_cache.waiting_curve.hits")
        else:
            missing = up_to + 1 - len(curve)
            self.curve_misses += 1
            self.curve_points_computed += missing
            obs.count("evaluation_cache.waiting_curve.misses")
            for n in range(len(curve), up_to + 1):
                curve.append(float(compute(n)))
        return np.array(curve[: up_to + 1], dtype=float)

    # ------------------------------------------------------------------
    # Per-type terms
    # ------------------------------------------------------------------
    def type_terms(
        self,
        performance: "PerformanceModel",
        counts: Sequence[int],
        repair_policy: RepairPolicy,
        degraded_policy: DegradedStatePolicy,
        penalty_waiting_time: float | None,
    ) -> list[TypeTerm]:
        """The terms of every type, ``counts[i]`` replicas of type ``i``.

        Each term is keyed by ``(type, count, (repair policy, degraded
        policy, penalty))``; the type name stands for its spec and total
        request rate because the cache is bound to one model
        fingerprint.  A miss builds the term from the shared pool
        marginal and waiting curve, so those caches are consulted once
        per distinct ``(type, count)`` rather than once per candidate.
        """
        policies = (
            repair_policy.value, degraded_policy.value, penalty_waiting_time
        )
        terms: list[TypeTerm] = []
        hits = 0
        for type_index, spec in enumerate(performance.server_types.specs):
            count = counts[type_index]
            key = (spec.name, count, policies)
            term = self._terms.get(key) if self.enabled else None
            if term is not None:
                hits += 1
                terms.append(term)
                continue
            term = type_term(
                performance,
                type_index,
                self.pool(spec, count, repair_policy),
                self.waiting_curve(
                    spec.name,
                    count,
                    lambda n: performance.waiting_time_for_count(type_index, n),
                ),
                degraded_policy,
                penalty_waiting_time,
            )
            if self.enabled:
                self._terms[key] = term
                self.term_misses += 1
                obs.count("evaluation_cache.type_terms.misses")
            terms.append(term)
        if hits:
            self.term_hits += hits
            obs.count("evaluation_cache.type_terms.hits", hits)
        return terms

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counter snapshot for reports and tests."""
        return {
            "assessments.size": len(self._assessments),
            "assessments.hits": self._assessments.hits,
            "assessments.misses": self._assessments.misses,
            "pool_marginals.size": len(self._pools),
            "pool_marginals.hits": self._pools.hits,
            "pool_marginals.misses": self._pools.misses,
            "waiting_curve.types": len(self._curves),
            "waiting_curve.hits": self.curve_hits,
            "waiting_curve.misses": self.curve_misses,
            "waiting_curve.points_computed": self.curve_points_computed,
            "type_terms.size": len(self._terms),
            "type_terms.hits": self.term_hits,
            "type_terms.misses": self.term_misses,
            "evictions": self._assessments.evictions + self._pools.evictions,
            "rebinds": self.rebinds,
        }
