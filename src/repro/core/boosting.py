"""Query boosting strategy (paper Algorithm 2).

Queries execute in rounds.  Each round selects the candidate set::

    C = { v_i : |N_i^L| >= γ1  and  LC_i <= γ2 }

where ``|N_i^L|`` counts the labeled (gold or pseudo) neighbors in the
query's *refreshed* neighbor selection and ``LC_i`` counts how many distinct
labels those neighbors carry (label conflict).  Candidates are executed and
their predictions become pseudo-labels, enriching the neighbor text of later
queries.  When no query qualifies, the thresholds are relaxed incrementally
(γ1 down first, then γ2 up), which preserves the strategy's core property:
the most reliably-predictable queries always run before riskier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.results import RunResult
from repro.runtime.scheduler import WorkItem, run_items

if TYPE_CHECKING:  # engines are passed in at run time
    from repro.io.runs import RunCheckpointer
    from repro.runtime.engine import MultiQueryEngine
    from repro.selection.base import SelectedNeighbor


@dataclass
class BoostingResult:
    """Run outcome plus the realized round structure."""

    run: RunResult
    rounds: list[list[int]] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


class QueryBoostingStrategy:
    """Scheduled pseudo-label boosting (Algorithm 2).

    Parameters
    ----------
    gamma1:
        Initial neighbor-label count threshold (paper default: 3).
    gamma2:
        Initial conflicting-label count threshold (paper default: 2).
    use_conflict_threshold:
        The link-prediction variant drops the conflict criterion
        (Sec. VI-J); node classification keeps it.
    min_pseudo_confidence:
        Optional extension beyond the paper (its conclusion suggests
        leveraging LLM classification probabilities): pseudo-labels whose
        response confidence falls below this threshold are *not* published
        to later queries, containing error propagation.  ``None`` (the
        paper's behaviour) publishes every pseudo-label.
    max_deferrals:
        Fault tolerance: a candidate whose LLM call fails (after the
        client's own retries) is re-enqueued into a later round up to this
        many times before the engine's degradation ladder answers it.
        Deferral is the boosting-native recovery — a later round is exactly
        as good a time to execute the query, and often better, since more
        pseudo-labels are available by then.
    """

    def __init__(
        self,
        gamma1: int = 3,
        gamma2: int = 2,
        use_conflict_threshold: bool = True,
        min_pseudo_confidence: float | None = None,
        max_deferrals: int = 2,
    ):
        if gamma1 < 0:
            raise ValueError(f"gamma1 must be >= 0, got {gamma1}")
        if gamma2 < 0:
            raise ValueError(f"gamma2 must be >= 0, got {gamma2}")
        if min_pseudo_confidence is not None and not 0.0 <= min_pseudo_confidence <= 1.0:
            raise ValueError("min_pseudo_confidence must be in [0, 1] or None")
        if max_deferrals < 0:
            raise ValueError(f"max_deferrals must be >= 0, got {max_deferrals}")
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.use_conflict_threshold = use_conflict_threshold
        self.min_pseudo_confidence = min_pseudo_confidence
        self.max_deferrals = max_deferrals

    def _qualifying_count(
        self, selected: "list[SelectedNeighbor]", gamma1: int, gamma2: int
    ) -> int | None:
        """``|N_i^L|`` of a neighbor selection that meets the candidate
        criterion ``|N_i^L| >= γ1 and LC_i <= γ2``; ``None`` when it fails."""
        labels = [sn.label for sn in selected if sn.label is not None]
        if len(labels) >= gamma1 and (
            not self.use_conflict_threshold or len(set(labels)) <= gamma2
        ):
            return len(labels)
        return None

    def _candidates(
        self,
        engine: "MultiQueryEngine",
        unexecuted: list[int],
        gamma1: int,
        gamma2: int,
    ) -> list[tuple[int, int]]:
        """Qualifying (node, label_count) pairs under the given thresholds."""
        out = []
        for node in unexecuted:
            count = self._qualifying_count(engine.select_neighbors(node), gamma1, gamma2)
            if count is not None:
                out.append((node, count))
        return out

    def _label_reads(
        self,
        engine: "MultiQueryEngine",
        node: int,
        relaxed: bool,
        deferrals: dict[int, int],
    ) -> frozenset[int] | None:
        """The pseudo-labels this round member *reads* (``None`` = barrier).

        A member admitted by γ-relaxation depends on the relaxation itself —
        a fact about the *global* label state ("nobody qualified"), not any
        label subset — and a re-enqueued deferral cannot re-dispatch before
        the failure that deferred it, so both keep full-barrier semantics.
        Everybody else reads exactly the selector's label support: settling
        those nodes fixes the member's candidacy, stats and prompt.
        """
        if relaxed or deferrals.get(node, 0) > 0:
            return None
        return engine.label_support(node)

    def _publishable(self, record) -> bool:
        """Whether a record's prediction may enter the pseudo-label map.

        Surrogate answers and abstentions never propagate: publishing them
        would poison the neighbor cues of every later query with labels no
        LLM produced.  (``degraded_pruned`` is a genuine LLM answer — pruned
        queries publish in the joint strategy anyway — so it propagates.)
        """
        if record.outcome in ("degraded_surrogate", "abstained"):
            return False
        return self._publishable_answer(record.predicted_label, record.confidence)

    def _publishable_answer(self, predicted: int | None, confidence: float | None) -> bool:
        """Whether an LLM answer's parsed label and confidence may propagate."""
        if predicted is None:
            return False
        if (
            self.min_pseudo_confidence is not None
            and confidence is not None
            and confidence < self.min_pseudo_confidence
        ):
            return False  # too uncertain to propagate (extension)
        return True

    def execute(
        self,
        engine: "MultiQueryEngine",
        queries: np.ndarray,
        pruned: frozenset[int] | set[int] = frozenset(),
        checkpointer: "RunCheckpointer | None" = None,
    ) -> BoostingResult:
        """Run Algorithm 2 over ``queries`` on ``engine``.

        ``pruned`` queries still participate in scheduling and pseudo-label
        propagation but are executed zero-shot (the joint strategy of
        Sec. VI-H wires token pruning in this way).

        With a ``checkpointer``, executed records and published pseudo-labels
        persist incrementally.  Resume works by *replay*: scheduling is
        deterministic given the label state, so re-running with the persisted
        records reproduces the identical execution order (hence identical
        prompts and predictions) while every cached node costs zero LLM
        calls.  Rounds that existed only because of a pre-crash deferral
        compact during replay, so ``round_index`` on post-resume records may
        sit lower than in an uninterrupted run; cached records keep their
        original stamps.

        A candidate whose LLM call fails (`TransientLLMError` after the
        client's own retries) is deferred — re-enqueued into a later round —
        up to ``max_deferrals`` times; after that the engine's degradation
        ladder (when configured) answers it.  Deferred-then-failed queries
        never poison the pseudo-label map.
        """
        scheduler = engine.scheduler
        if (
            scheduler is not None
            and getattr(scheduler, "dispatch", "wave") == "dag"
            and scheduler.mode == "threads"
        ):
            # Dependency-driven continuous batching: round N+1 queries whose
            # read labels have settled pipeline into round N's tail.  Same
            # records/ledger/checkpoints, real overlap beyond the barrier.
            from repro.runtime.readiness import execute_pipelined

            return execute_pipelined(
                self, engine, queries, pruned=frozenset(pruned), checkpointer=checkpointer
            )
        stepper = BoostingStepper(
            self, engine, queries, pruned=pruned, checkpointer=checkpointer
        )
        while not stepper.done:
            stepper.step()
        return stepper.finish()


class BoostingStepper:
    """One-round-at-a-time driver for Algorithm 2 over one engine.

    :meth:`QueryBoostingStrategy.execute` drains a stepper to completion —
    the serial contract.  The sharded cluster (:mod:`repro.runtime.cluster`)
    instead holds one stepper per worker and advances them in *lockstep*:
    every worker runs round ``r``, then settled pseudo-labels gossip across
    shard boundaries, then round ``r+1`` starts.  Because both callers drive
    the identical round body, a one-shard cluster run is bit-identical to
    the unsharded strategy by construction, not by parallel maintenance.

    Threshold relaxation state (γ1, γ2) is per-stepper, so each cluster
    worker relaxes against its own shard's label density — which at one
    shard reduces to the strategy's global behaviour exactly.
    """

    def __init__(
        self,
        strategy: QueryBoostingStrategy,
        engine: "MultiQueryEngine",
        queries: np.ndarray,
        pruned: frozenset[int] | set[int] = frozenset(),
        checkpointer: "RunCheckpointer | None" = None,
    ):
        self.strategy = strategy
        self.engine = engine
        self.pruned = pruned
        self.checkpointer = checkpointer
        self.unexecuted = [int(v) for v in np.asarray(queries, dtype=np.int64)]
        if len(set(self.unexecuted)) != len(self.unexecuted):
            raise ValueError("queries contain duplicates")
        self.cached = checkpointer.executed if checkpointer is not None else {}
        self.gamma1 = strategy.gamma1
        self.gamma2 = strategy.gamma2
        self.result = RunResult()
        self.rounds: list[list[int]] = []
        self.deferrals: dict[int, int] = {}
        #: Pseudo-labels published by the most recent :meth:`step` — what the
        #: cluster gossips to neighboring shards after the round barrier.
        self.published_this_round: dict[int, int] = {}
        self._finished = False
        if engine.observer is not None:
            engine.observer.on_run_start(len(self.unexecuted))

    @property
    def done(self) -> bool:
        """True when every query has a record (no further rounds needed)."""
        return not self.unexecuted

    def select_candidates(self) -> tuple[list[tuple[int, int]], bool]:
        """Step 1: the round's candidates, relaxing γ1/γ2 while none qualify.

        Returns the ``(node, |N_i^L|)`` pairs richest-labeled first (ties by
        node id) and whether γ-relaxation admitted them.
        """
        strategy = self.strategy
        engine = self.engine
        candidates = strategy._candidates(engine, self.unexecuted, self.gamma1, self.gamma2)
        relaxed = False
        while not candidates:
            relaxed = True
            if self.gamma1 > 0:
                self.gamma1 -= 1
            elif strategy.use_conflict_threshold and self.gamma2 < engine.graph.num_classes:
                self.gamma2 += 1
            else:
                # Criterion is now vacuous; everything qualifies.
                candidates = [(node, 0) for node in self.unexecuted]
                break
            candidates = strategy._candidates(engine, self.unexecuted, self.gamma1, self.gamma2)
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        return candidates, relaxed

    def can_defer(self, node: int) -> bool:
        """Whether a failed call of ``node`` may still re-enqueue it."""
        return self.deferrals.get(node, 0) < self.strategy.max_deferrals

    def work_item(
        self, node: int, round_index: int, reads: frozenset[int] | None = None
    ) -> WorkItem:
        """The canonical work item of one round member."""
        checkpointer = self.checkpointer
        return WorkItem(
            node=node,
            include_neighbors=node not in self.pruned,
            round_index=round_index,
            on_failure="raise" if self.can_defer(node) else None,
            cached=self.cached.get(node),
            on_defer=lambda: self._note_deferral(node),
            after_execute=checkpointer.append if checkpointer is not None else None,
            reads=reads,
        )

    def _note_deferral(self, node: int) -> None:
        self.deferrals[node] = self.deferrals.get(node, 0) + 1
        if self.engine.observer is not None:
            self.engine.observer.on_deferral(node, self.deferrals[node])

    def step(self) -> list:
        """Run one boosting round: select, execute, publish.

        Returns the round's records (possibly empty when every candidate
        deferred).  Pseudo-labels publish before this returns, so the label
        state a caller observes between steps is exactly the between-rounds
        state of Algorithm 2.
        """
        if self.done:
            raise RuntimeError("step() called on a finished stepper")
        strategy = self.strategy
        engine = self.engine
        candidates, relaxed = self.select_candidates()
        round_index = len(self.rounds)
        # Step 2: execute the candidate set as one dependency-free wave:
        # pseudo-labels publish only after Step 3, so candidates may
        # dispatch batched/overlapped without changing any prompt.
        dag = getattr(engine.scheduler, "dispatch", "wave") == "dag"
        items = [
            self.work_item(
                node,
                round_index,
                reads=(
                    strategy._label_reads(engine, node, relaxed, self.deferrals)
                    if dag
                    else None
                ),
            )
            for node, _ in candidates
        ]
        with engine.span("round", round_index=round_index, candidates=len(candidates)):
            round_records, round_deferred = run_items(engine, items)
        self.publish_round(round_records, round_deferred)
        return round_records

    def publish_round(self, round_records: list, round_deferred: int) -> None:
        """Step 3 and bookkeeping: publish the round's pseudo-labels, retire
        its executed queries and close the round.

        Pseudo-labels publish after the whole round, exactly as Algorithm 2
        separates its query and label-update steps.
        """
        strategy = self.strategy
        engine = self.engine
        checkpointer = self.checkpointer
        self.result.extend(round_records)
        self.published_this_round = {}
        for record in round_records:
            if not strategy._publishable(record):
                continue
            if record.node not in engine.pseudo_labeled:
                engine.add_pseudo_label(record.node, record.predicted_label)
                self.published_this_round[record.node] = record.predicted_label
                if checkpointer is not None:
                    checkpointer.record_pseudo(record.node, record.predicted_label)
        executed = {r.node for r in round_records}
        self.unexecuted = [v for v in self.unexecuted if v not in executed]
        if round_records:
            if engine.observer is not None:
                engine.observer.on_round_end(
                    len(self.rounds), len(round_records), round_deferred
                )
            self.rounds.append([r.node for r in round_records])

    def finish(self) -> BoostingResult:
        """Seal the run: mark the checkpoint complete, return the result."""
        if not self.done:
            raise RuntimeError("finish() called with queries still unexecuted")
        if not self._finished:
            if self.checkpointer is not None:
                self.checkpointer.mark_complete()
            self._finished = True
        return BoostingResult(run=self.result, rounds=self.rounds)
