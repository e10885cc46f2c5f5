"""The unified configuration-search loop (Section 7.2).

:class:`SearchEngine` owns everything the four search algorithms used
to duplicate: asking a strategy for the next candidate, assessing it,
recording the :class:`SearchStep` trace, counting evaluations, and
emitting the ``configuration.search`` span and counters.  The
strategies (:mod:`repro.core.search.strategies`) contain only search
logic.  One loop, every algorithm.
"""

from __future__ import annotations

from typing import Callable

from repro import obs
from repro.core.goals import GoalAssessment, GoalEvaluator, PerformabilityGoals
from repro.core.search.strategies import SearchExhausted, SearchStrategy
from repro.core.search.types import (
    ConfigurationRecommendation,
    SearchStep,
)
from repro.exceptions import InfeasibleConfigurationError, SearchCancelledError


class SearchEngine:
    """Runs one candidate-proposal strategy to a recommendation.

    The loop is sequential: each candidate is assessed and handed back
    to the strategy before the next one is proposed, so the strategy
    alone fixes the order in which candidates are consumed.
    """

    def __init__(
        self,
        evaluator: GoalEvaluator,
        goals: PerformabilityGoals,
        stop_check: Callable[[], bool] | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.goals = goals
        #: Cooperative cancellation probe, polled before every
        #: candidate; returning true raises
        #: :class:`~repro.exceptions.SearchCancelledError`.  ``None``
        #: (the default) never cancels.
        self.stop_check = stop_check

    def run(self, strategy: SearchStrategy) -> ConfigurationRecommendation:
        """Drive ``strategy`` to exhaustion or acceptance; recommend."""
        evaluator = self.evaluator
        evaluations_before = evaluator.evaluation_count
        record_trace = getattr(strategy, "record_trace", False)
        trace: list[SearchStep] | None = [] if record_trace else None

        def recommendation(
            assessment: GoalAssessment,
        ) -> ConfigurationRecommendation:
            configuration = assessment.configuration
            return ConfigurationRecommendation(
                configuration=configuration,
                cost=configuration.cost(evaluator.server_types),
                assessment=assessment,
                evaluations=evaluator.evaluation_count - evaluations_before,
                trace=tuple(trace) if trace is not None else (),
                algorithm=strategy.name,
            )

        with obs.span("configuration.search", algorithm=strategy.name) as span:
            try:
                final = self._loop(strategy, trace)
            except SearchExhausted as exc:
                best = (
                    recommendation(exc.best_assessment)
                    if exc.best_assessment is not None else None
                )
                raise InfeasibleConfigurationError(
                    exc.message, best_found=best
                ) from None
            span.set(
                "evaluations",
                evaluator.evaluation_count - evaluations_before,
            )
            if trace is not None:
                span.set("iterations", len(trace))
            return recommendation(final)

    def _loop(
        self, strategy: SearchStrategy, trace: list[SearchStep] | None
    ) -> GoalAssessment:
        """Propose, assess and observe until the strategy is done.

        A :class:`SearchStep` is built for each candidate only when
        ``trace`` is a list, i.e. when the strategy records its trace.
        """
        evaluator, goals, stop_check = (
            self.evaluator, self.goals, self.stop_check
        )
        while True:
            if stop_check is not None and stop_check():
                obs.count("configuration.search.cancelled")
                raise SearchCancelledError(
                    f"search {strategy.name!r} cancelled by stop_check"
                )
            candidate = strategy.propose()
            if candidate is None:
                return strategy.exhausted()
            obs.count("configuration.search.iterations")
            configuration = candidate.configuration
            assessment = evaluator.assess(configuration, goals)
            if trace is not None:
                trace.append(
                    SearchStep(
                        configuration=configuration,
                        cost=configuration.cost(evaluator.server_types),
                        satisfied=assessment.satisfied,
                        added_server_type=candidate.added_server_type,
                        criterion=candidate.criterion,
                    )
                )
            final = strategy.observe(candidate, assessment)
            if final is not None:
                return final
