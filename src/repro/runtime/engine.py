"""Multi-query execution engine.

The engine owns everything one "LLMs as predictors" deployment needs to run
a query set: the graph, the black-box LLM client, a neighbor-selection
method, the prompt builder, and the evolving label state (gold labels of
``V_L`` plus pseudo-labels appended by query boosting).  Strategies drive it
query by query (boosting) or in bulk (plain runs, Algorithm 1 pruned runs).

Neighbor sampling randomness is seeded per *node*, not per call, so the same
query node draws the same random neighbors whether or not it is pruned,
boosted, or reordered — exactly the paired-comparison setup the paper's
tables rely on.  It also makes a node's selection a pure function of the
labels in its selector's ``label_support``, which lets the engine memoise
selections and drop only those a newly published label can change.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import BudgetLedger
from repro.graph.tag import TextAttributedGraph
from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.reliability import TransientLLMError, track_call_retries
from repro.llm.responses import UNPARSED, parse_category_response
from repro.mqo.compression import PromptCompressor
from repro.prompts.builder import NeighborEntry, PromptBuilder
from repro.runtime.fallback import PRUNED, SURROGATE, DegradationLadder, rungs_from
from repro.runtime.results import QueryRecord, RunResult
from repro.runtime.router import CascadeRouter
from repro.runtime.scheduler import QueryScheduler, WorkItem, run_items
from repro.selection.base import NeighborSelector, SelectedNeighbor
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:
    from collections.abc import Mapping

    from repro.io.runs import RunCheckpointer
    from repro.obs.hooks import RunObserver

#: Node texts one engine keeps decoded.  A replica holds its texts as word
#: ids and joins a text on every read; a serve pass renders a request's
#: prompt for its admission gate, its wave plan and its execution, so the
#: same target texts are read three times within a few requests.
_TEXT_MEMO_SIZE = 256


class MultiQueryEngine:
    """Stateful executor of node-classification queries.

    Parameters
    ----------
    graph, llm, selector, builder:
        The four substrates a deployment wires together.
    labeled:
        Node ids of ``V_L``; their gold labels seed the label state.
    max_neighbors:
        Per-prompt neighbor cap ``M``.
    include_neighbor_abstracts:
        Whether neighbor blocks carry abstracts as well as titles (the
        costlier Table V configurations; default False per Sec. VI-A2).
    ledger:
        Optional token ledger charged for every executed query.
    seed:
        Base seed for per-node neighbor sampling.
    ladder:
        Optional :class:`~repro.runtime.fallback.DegradationLadder`.  When
        set, a query whose LLM call ultimately fails (retries exhausted,
        circuit open) degrades through cheaper answer sources instead of
        raising; the chosen tier lands in ``QueryRecord.outcome``.
    observer:
        Optional :class:`~repro.obs.hooks.RunObserver` (duck-typed, no hard
        dependency on ``repro.obs``).  When set, each query's lifecycle is
        traced as nested spans (neighbor selection → prompt build → LLM
        call → parse) and every record is reported via ``on_query_end``.
        ``None`` (the default) adds no calls of any kind — execution is
        byte-identical to an unobserved engine.
    clock:
        Optional simulated clock (anything with ``.now``); when present,
        each record's ``latency_seconds`` is stamped with the simulated
        time its execution consumed (retry backoff, breaker think time).
    scheduler:
        Optional :class:`~repro.runtime.scheduler.QueryScheduler`.  When
        set, :meth:`run`, :meth:`run_with_budget_guard` and the boosting
        strategy dispatch dependency-free waves through it (batched,
        concurrency-overlapped) instead of looping query by query; records
        merge back in canonical order, so simulated dispatch stays
        bit-identical to serial execution.  ``None`` keeps the serial loop.
    router:
        Optional :class:`~repro.runtime.router.CascadeRouter`.  When set,
        every primary LLM call routes through the multi-model cascade
        instead of ``llm`` (which should be the cascade's cheap tier — it
        still serves tokenizer counts and the degradation ladder's pruned
        retry).  Records gain tier provenance, and the ledger is charged in
        dollars as well as tokens.
    compressor:
        Optional :class:`~repro.mqo.compression.PromptCompressor`.  When
        set, queries executed with ``compress=True`` squeeze their
        neighbor prompt to the compressor's token budget before the LLM
        call; records that actually shrank are stamped ``compressed=True``
        with outcome ``degraded_compressed``.  ``None`` makes every compress request a
        no-op passthrough of the full prompt.  The engine makes the
        compressor count with ``llm``'s tokenizer, so a prompt both count is
        tokenized once.
    """

    def __init__(
        self,
        graph: TextAttributedGraph,
        llm: LLMClient,
        selector: NeighborSelector,
        builder: PromptBuilder,
        labeled: np.ndarray,
        max_neighbors: int = 4,
        include_neighbor_abstracts: bool = False,
        ledger: BudgetLedger | None = None,
        seed: int = 0,
        ladder: DegradationLadder | None = None,
        observer: "RunObserver | None" = None,
        clock: object | None = None,
        scheduler: QueryScheduler | None = None,
        router: CascadeRouter | None = None,
        compressor: PromptCompressor | None = None,
    ):
        if max_neighbors < 0:
            raise ValueError("max_neighbors must be >= 0")
        self.graph = graph
        self.llm = llm
        self.selector = selector
        self.builder = builder
        self.max_neighbors = max_neighbors
        self.include_neighbor_abstracts = include_neighbor_abstracts
        self.ledger = ledger
        self.seed = seed
        self.ladder = ladder
        self.observer = observer
        self.clock = clock
        self.scheduler = scheduler
        self.router = router
        self.compressor = compressor
        if compressor is not None:
            compressor.count_with(llm.tokenizer)
        # Per engine, like the tokenizer's count memo, so no decoded text
        # outlives the run that read it.
        self._text = lru_cache(maxsize=_TEXT_MEMO_SIZE)(graph.texts.__getitem__)
        self._labels: dict[int, int] = {
            int(v): int(graph.labels[int(v)]) for v in np.asarray(labeled, dtype=np.int64)
        }
        self._pseudo: set[int] = set()
        # Selection memo.  Selections memoised since the last label add wait
        # in ``_pending``; the next add indexes each, once per node, under
        # the support members still unlabeled then (labels are add-only, so
        # labeled members never change), or marks it as reading any label.
        # Runs that never add a label never compute a support.
        self._selections: dict[int, list[SelectedNeighbor]] = {}
        self._pending: list[int] = []
        self._indexed: set[int] = set()
        self._dependents: dict[int, list[int]] = {}
        self._reads_any: set[int] = set()
        self._supports: dict[int, frozenset[int] | None] = {}

    # ------------------------------------------------------------ label state

    @property
    def label_map(self) -> "Mapping[int, int]":
        """Current labels (gold + pseudo), as a read-only live view.

        Labels change only through :meth:`add_pseudo_label`, which keeps
        the selection memo in step with them.
        """
        return MappingProxyType(self._labels)

    @property
    def pseudo_labeled(self) -> frozenset[int]:
        return frozenset(self._pseudo)

    def add_pseudo_label(self, node: int, label: int) -> None:
        """Record a pseudo-label from an executed query (Algorithm 2 step 3).

        Gold labels are never overwritten; re-adding a pseudo-label for the
        same node raises, since each query executes exactly once.
        """
        node = int(node)
        if node in self._labels:
            raise ValueError(f"node {node} already has a label")
        if not 0 <= label < self.graph.num_classes:
            raise ValueError(f"label {label} out of range")
        self._index_pending()
        self._labels[node] = int(label)
        self._pseudo.add(node)
        for dependent in self._dependents.pop(node, ()):
            self._selections.pop(dependent, None)
        for dependent in self._reads_any:
            self._selections.pop(dependent, None)

    def restore_pseudo_labels(self, labels: "Mapping[int, int]") -> None:
        """Re-publish pseudo-labels persisted by a checkpoint (resume path).

        Labels already present and identical are skipped (replay is
        idempotent); a conflicting label means the checkpoint belongs to a
        different run and raises.
        """
        for node, label in labels.items():
            node, label = int(node), int(label)
            existing = self._labels.get(node)
            if existing is None:
                self.add_pseudo_label(node, label)
            elif existing != label:
                raise ValueError(
                    f"checkpoint pseudo-label {label} for node {node} conflicts "
                    f"with existing label {existing}"
                )

    # -------------------------------------------------------------- selection

    def label_support(self, node: int) -> frozenset[int] | None:
        """The selector's :meth:`~NeighborSelector.label_support` of ``node``,
        computed once per engine."""
        node = int(node)
        if node not in self._supports:
            self._supports[node] = self.selector.label_support(self.graph, node)
        return self._supports[node]

    def select_neighbors(self, node: int) -> list[SelectedNeighbor]:
        """The selection of ``node`` under the current label state.

        Memoised until a label inside the node's support is added.  The
        returned list is shared between callers, who must not mutate it.
        Labels never change while a wave's worker threads prepare prompts,
        so concurrent misses at worst compute the same selection twice.
        """
        node = int(node)
        selected = self._selections.get(node)
        if selected is None:
            selected = self._select_under(node, self._labels)
            self._selections[node] = selected
            self._pending.append(node)
        return selected

    def _index_pending(self) -> None:
        """Index the selections memoised since the last label add.

        Runs before the next label lands, so the label state is still the
        one those selections were made under.  The support is not kept: an
        SNS support spans thousands of nodes, and the index needs only its
        unlabeled members, once.
        """
        for node in self._pending:
            if node in self._indexed:
                continue
            self._indexed.add(node)
            support = self.selector.label_support(self.graph, node)
            if support is None:
                self._reads_any.add(node)
                continue
            for member in support:
                if member not in self._labels:
                    self._dependents.setdefault(member, []).append(node)
        self._pending.clear()

    def _select_under(self, node: int, labels: "Mapping[int, int]") -> list[SelectedNeighbor]:
        """Run the selector for ``node`` against the label view ``labels``.

        The per-node sample seed is derived here and only here, so every
        selection of a node — canonical or a planner's partial view — draws
        the same random neighbors.  Never memoised: ``labels`` need not be
        the engine's own state.
        """
        node = int(node)
        rng = spawn_rng(self.seed, "neighbor-sample", node)
        return self.selector.select(self.graph, node, labels, self.max_neighbors, rng)

    def _entries(self, selected: list[SelectedNeighbor]) -> list[NeighborEntry]:
        """Neighbor blocks; a block without its abstract decodes only the title."""
        graph = self.graph
        entries = []
        for sn in selected:
            if self.include_neighbor_abstracts:
                text = self._text(sn.node)
                title, abstract = text.title, text.abstract
            else:
                title, abstract = graph.title(sn.node), None
            entries.append(
                NeighborEntry(
                    title=title,
                    abstract=abstract,
                    label_name=graph.class_names[sn.label] if sn.label is not None else None,
                )
            )
        return entries

    def build_prompt(self, node: int, include_neighbors: bool = True) -> tuple[str, list[SelectedNeighbor]]:
        """Render the prompt for ``node`` and return the neighbors used."""
        if not include_neighbors:
            text = self._text(int(node))
            return self.builder.zero_shot(text.title, text.abstract), []
        selected = self.select_neighbors(node)
        return self._render_prompt(node, selected), selected

    def _render_prompt(self, node: int, selected: list[SelectedNeighbor]) -> str:
        """Render the neighbor-bearing prompt from an existing selection."""
        text = self._text(int(node))
        return self.builder.with_neighbors(
            text.title,
            text.abstract,
            self._entries(selected),
            similarity_ranked=self.selector.similarity_ranked,
        )

    def _compress_prompt(self, prompt: str) -> tuple[str, bool]:
        """Apply the engine's compressor; identity when nothing shrank."""
        assert self.compressor is not None
        result = self.compressor.compress(prompt)
        if result.changed:
            return result.text, True
        return prompt, False

    def preview_prompt(
        self, node: int, include_neighbors: bool = True, compress: bool = False
    ) -> str:
        """The exact prompt text :meth:`execute_query` would send, span-free.

        Compression is a pure function of (prompt, seed), so planners — the
        scheduler's prefix-sharing batcher, the serving layer's admission
        gate — can cost a query byte-exactly without executing it and
        without emitting any observer spans.
        """
        return self.prepare_prompt(node, include_neighbors, compress)[0]

    # -------------------------------------------------------------- execution

    def span(self, name: str, **attributes):
        """Observer span context manager, or a no-op without an observer.

        Yields the span (``None`` when unobserved), so callers annotate
        with ``if span is not None: span.set(...)``.
        """
        if self.observer is None:
            return nullcontext()
        return self.observer.span(name, **attributes)

    def _record_from_response(
        self,
        node: int,
        response: LLMResponse,
        selected: list[SelectedNeighbor],
        pruned: bool,
        round_index: int | None,
        outcome: str,
        compressed: bool = False,
        predicted: int | None | object = UNPARSED,
    ) -> QueryRecord:
        """Charge the ledger and parse one completion into a record.

        ``response`` is an :class:`LLMResponse` or (duck-typed) a routed
        :class:`~repro.runtime.router.RoutedResponse`; the latter carries
        cascade provenance and a per-tier dollar cost, both of which land on
        the record, and its dollars charge the unified ledger alongside the
        tokens.  A caller that already parsed ``response`` passes the label
        as ``predicted``, and the text is not parsed again.
        """
        routed_cost = getattr(response, "cost_usd", None)
        if self.ledger is not None:
            self.ledger.charge(
                response.total_tokens, usd=routed_cost if routed_cost is not None else 0.0
            )
        if predicted is UNPARSED:
            predicted = parse_category_response(response.text, self.graph.class_names)
        labeled_neighbors = [sn for sn in selected if sn.label is not None]
        return QueryRecord(
            node=node,
            true_label=int(self.graph.labels[node]),
            predicted_label=predicted,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            num_neighbors=len(selected),
            num_neighbor_labels=len(labeled_neighbors),
            num_pseudo_labels=sum(sn.node in self._pseudo for sn in labeled_neighbors),
            pruned=pruned,
            round_index=round_index,
            confidence=response.confidence,
            outcome=outcome,
            tier=getattr(response, "tier", None),
            escalations=getattr(response, "escalations", 0),
            cost_usd=routed_cost,
            compressed=compressed,
        )

    @staticmethod
    def _primary_outcome(compressed: bool, call_retries: int) -> str:
        """Outcome of a primary call that answered."""
        if compressed:
            return "degraded_compressed"
        return "retried" if call_retries else "ok"

    def _degraded_record(
        self, node: int, include_neighbors: bool, round_index: int | None
    ) -> QueryRecord:
        """Walk the degradation ladder after the primary LLM call failed.

        The walk starts at the pruned rung, or at the surrogate rung for a
        query that was already zero-shot.  It never enters the compressed
        rung: a transient failure is a provider fault, not a price, and the
        compressed rung only makes the same neighbor prompt cheaper.  The
        pruned retry goes to ``self.llm``, never through the router.
        """
        assert self.ladder is not None
        for rung in rungs_from(PRUNED if include_neighbors else SURROGATE):
            if not rung.calls_llm:
                break
            prompt, selected, compressed = self.prepare_prompt(
                node, rung.include_neighbors, rung.compress
            )
            try:
                with self.span(f"degrade_{rung.name}", node=node):
                    response = self.llm.complete(prompt)
            except TransientLLMError:
                continue
            return self._record_from_response(
                node,
                response,
                selected,
                not rung.include_neighbors,
                round_index,
                f"degraded_{rung.name}",
                compressed=compressed,
            )
        return self._zero_token_record(node, round_index)

    def _zero_token_record(self, node: int, round_index: int | None) -> QueryRecord:
        """The ladder's zero-token tail: the surrogate, else an abstention."""
        if self.ladder.surrogate is not None:
            # The surrogate MLP behind D(t_i), at zero token cost.
            with self.span("degrade_surrogate", node=node):
                label, confidence = self.ladder.surrogate_prediction(node)
            outcome = "degraded_surrogate"
        else:
            # An explicit abstention beats an aborted run.
            with self.span("abstain", node=node):
                label, confidence = None, None
            outcome = "abstained"
        return QueryRecord(
            node=node,
            true_label=int(self.graph.labels[node]),
            predicted_label=label,
            prompt_tokens=0,
            completion_tokens=0,
            num_neighbors=0,
            num_neighbor_labels=0,
            num_pseudo_labels=0,
            pruned=True,
            round_index=round_index,
            confidence=confidence,
            outcome=outcome,
        )

    def execute_query(
        self,
        node: int,
        include_neighbors: bool = True,
        round_index: int | None = None,
        on_failure: str | None = None,
        compress: bool = False,
    ) -> QueryRecord:
        """Execute one LLM query and return its record.

        ``include_neighbors=False`` is the token-pruned (zero-shot) form.
        ``compress=True`` (engine ``compressor`` required to take effect)
        squeezes the neighbor prompt to the compressor's token budget first
        — the degradation rung between full and pruned.

        ``on_failure`` controls what an ultimately-failed LLM call does:
        ``"degrade"`` walks the engine's :class:`DegradationLadder`,
        ``"raise"`` propagates the :class:`TransientLLMError` (so a caller —
        e.g. query boosting — can defer the node to a later round instead).
        ``None`` degrades when the engine has a ladder and raises otherwise.
        """
        node = int(node)
        mode = self.failure_mode(on_failure)
        return self._query_lifecycle(
            lambda: self._execute_inner(node, include_neighbors, round_index, mode, compress),
            node=node,
            round_index=round_index,
            zero_shot=not include_neighbors,
        )

    def failure_mode(self, on_failure: str | None) -> str:
        """Validate ``on_failure`` and resolve it to ``"degrade"`` or ``"raise"``.

        ``None`` degrades when the engine has a ladder and raises otherwise;
        an explicit ``"degrade"`` without a ladder is an error.
        """
        if on_failure not in (None, "degrade", "raise"):
            raise ValueError(f"on_failure must be 'degrade', 'raise' or None, got {on_failure!r}")
        mode = on_failure or ("degrade" if self.ladder is not None else "raise")
        if mode == "degrade" and self.ladder is None:
            raise ValueError("on_failure='degrade' requires an engine degradation ladder")
        return mode

    def _query_lifecycle(self, produce, **span_attrs) -> QueryRecord:
        """Produce one record inside its ``query`` span and report it.

        The single lifecycle of every executed query: the span opens, the
        clock starts, ``produce()`` builds the record, which is stamped with
        the simulated latency it consumed, annotated onto the span and
        reported through ``on_query_end``.
        """
        started_at = self.clock.now if self.clock is not None else None
        with self.span("query", **span_attrs) as qspan:
            record = produce()
            if started_at is not None:
                record = replace(
                    record, latency_seconds=float(self.clock.now - started_at)
                )
            self._annotate_query_span(qspan, record)
            if self.observer is not None:
                self.observer.on_query_end(record)
            return record

    @staticmethod
    def _annotate_query_span(qspan, record: QueryRecord) -> None:
        """Stamp a closing ``query`` span with the record's outcome facts.

        Routed records additionally carry the answering cascade tier and the
        all-attempts dollar cost, so post-hoc attribution can roll spend up
        by tier without re-deriving pricing.
        """
        if qspan is None:
            return
        qspan.set(
            outcome=record.outcome,
            prompt_tokens=record.prompt_tokens,
            completion_tokens=record.completion_tokens,
        )
        if record.tier is not None:
            qspan.set(tier=record.tier)
        if record.cost_usd is not None:
            qspan.set(cost_usd=record.cost_usd)
        if record.compressed:
            qspan.set(compressed=True)

    def _execute_inner(
        self,
        node: int,
        include_neighbors: bool,
        round_index: int | None,
        mode: str,
        compress: bool = False,
    ) -> QueryRecord:
        """The untimed query lifecycle: select → build → [compress] → call → parse."""
        if include_neighbors:
            with self.span("select_neighbors", node=node):
                selected = self.select_neighbors(node)
            with self.span("prompt_build", node=node, num_neighbors=len(selected)):
                prompt = self._render_prompt(node, selected)
        else:
            selected = []
            with self.span("prompt_build", node=node, num_neighbors=0):
                prompt, _ = self.build_prompt(node, include_neighbors=False)
        compressed = False
        if compress and include_neighbors and self.compressor is not None:
            with self.span("compress", node=node):
                prompt, compressed = self._compress_prompt(prompt)
        try:
            with self.span("llm_call", node=node):
                response, call_retries = self.call_llm(prompt, node=node)
        except TransientLLMError:
            if mode == "raise":
                raise
            return self._degraded_record(node, include_neighbors, round_index)
        with self.span("parse", node=node):
            return self._record_from_response(
                node,
                response,
                selected,
                not include_neighbors,
                round_index,
                self._primary_outcome(compressed, call_retries),
                compressed=compressed,
            )

    # ------------------------------------------------------- batched dispatch

    def call_llm(self, prompt: str, node: int | None = None) -> tuple[LLMResponse, int]:
        """One LLM call with per-call retry accounting.

        With a :attr:`router` and a known ``node``, the call runs the whole
        multi-model cascade (entry tier from ``D(t_i)``, escalation on low
        confidence) and returns the aggregated
        :class:`~repro.runtime.router.RoutedResponse`; otherwise it hits the
        engine's single client.  The retry count comes from a thread-local
        tally, so it is correct both on the serial path and from the batched
        scheduler's dispatcher threads (where a global before/after counter
        diff would mix in concurrent queries' retries).
        """
        with track_call_retries() as tally:
            if self.router is not None and node is not None:
                response = self.router.complete(node, prompt)
            else:
                response = self.llm.complete(prompt)
        return response, tally.retries

    def prepare_prompt(
        self, node: int, include_neighbors: bool, compress: bool = False
    ) -> tuple[str, list[SelectedNeighbor], bool]:
        """Span-free prompt preparation for dispatcher worker threads.

        Returns ``(prompt, selected, compressed)`` — the same text and
        selection the serial path would produce, without emitting observer
        spans (worker threads must not interleave span events; the merge
        thread emits the condensed ``query`` span instead).
        """
        prompt, selected = self.build_prompt(node, include_neighbors=include_neighbors)
        compressed = False
        if compress and include_neighbors and self.compressor is not None:
            prompt, compressed = self._compress_prompt(prompt)
        return prompt, selected, compressed

    def finalize_prepared(
        self,
        node: int,
        response: LLMResponse,
        selected: list[SelectedNeighbor],
        include_neighbors: bool,
        round_index: int | None,
        call_retries: int,
        extra_span_attrs: dict | None = None,
        compressed: bool = False,
        predicted: int | None | object = UNPARSED,
    ) -> QueryRecord:
        """Turn a phase-1 completion into a record (thread-dispatch merge).

        Runs on the merge thread in canonical order: the ledger charge, the
        parse and the observer report happen exactly once per query, in the
        same relative order as a serial run.  The emitted ``query`` span is
        condensed (the select/build/call children already happened off-span
        on a worker thread) and tagged ``batched`` for trace consumers.
        ``extra_span_attrs`` lets the readiness scheduler add its additive
        ``dag_*`` attributes (trace schema v3) without touching the record.
        ``predicted`` is the label of a completion parsed before the merge.
        """
        return self._query_lifecycle(
            lambda: self._record_from_response(
                node,
                response,
                selected,
                not include_neighbors,
                round_index,
                self._primary_outcome(compressed, call_retries),
                compressed=compressed,
                predicted=predicted,
            ),
            node=node,
            round_index=round_index,
            zero_shot=not include_neighbors,
            batched=True,
            **(extra_span_attrs or {}),
        )

    def degrade_failed_query(
        self, node: int, include_neighbors: bool, round_index: int | None
    ) -> QueryRecord:
        """Walk the degradation ladder for a query whose phase-1 call failed
        (thread-dispatch merge path; mirrors the serial degrade branch)."""
        return self._query_lifecycle(
            lambda: self._degraded_record(node, include_neighbors, round_index),
            node=node,
            round_index=round_index,
            zero_shot=not include_neighbors,
            batched=True,
        )

    def surrogate_query(self, node: int, round_index: int | None = None) -> QueryRecord:
        """Answer one query from the degradation ladder without touching the LLM.

        The serving layer's budget gate uses this as the zero-token rung of
        its overload ladder: when a tenant cannot afford even the pruned
        prompt, the surrogate MLP (then abstention) still produces a record.
        Emits the same ``query`` span / ``on_query_end`` lifecycle as an
        executed query, in call order, so serve traces stay replay-exact.
        """
        if self.ladder is None:
            raise ValueError("surrogate_query requires an engine degradation ladder")
        node = int(node)
        return self._query_lifecycle(
            lambda: self._zero_token_record(node, round_index),
            node=node,
            round_index=round_index,
            zero_shot=True,
            surrogate=True,
        )

    def observe_replay(self, record: QueryRecord) -> None:
        """Report one checkpoint-cached record: a ``replayed`` span, zero
        paid tokens (its spend happened in the pre-crash run)."""
        if self.router is not None:
            self.router.note_replayed(record.tier)
        if self.observer is None:
            return
        attrs: dict[str, object] = {}
        if record.tier is not None:
            attrs["tier"] = record.tier
        with self.observer.span(
            "query",
            node=record.node,
            round_index=record.round_index,
            replayed=True,
            outcome=record.outcome,
            prompt_tokens=0,
            completion_tokens=0,
            **attrs,
        ):
            pass
        self.observer.on_query_end(record, replayed=True)

    def run(
        self,
        queries: np.ndarray,
        pruned: frozenset[int] | set[int] = frozenset(),
        checkpointer: "RunCheckpointer | None" = None,
        compressed: frozenset[int] | set[int] = frozenset(),
    ) -> RunResult:
        """Execute ``queries`` in order; nodes in ``pruned`` go zero-shot.

        Nodes in ``compressed`` (requires an engine ``compressor``) keep
        their neighbor text but squeeze it to the compressor's token budget
        — the middle rung between full and pruned.  ``pruned`` wins when a
        node appears in both.

        This is the plain (non-boosted) execution mode used by the original
        benchmark methods and by Algorithm 1.  With a ``checkpointer``,
        every executed record persists incrementally and a resumed run
        replays persisted records without re-issuing their LLM calls.

        With a ``scheduler``, the whole query list is one dependency-free
        wave: no query reads another's output, so dispatch order is free and
        records merge back in query order.  Under the DAG dispatch plan the
        items declare ``reads=frozenset()`` — a plain run truly reads no
        pseudo-labels, so every query is immediately ready.
        """
        executed = checkpointer.executed if checkpointer is not None else {}
        items = [
            WorkItem(
                node=node,
                cached=executed.get(node),
                include_neighbors=node not in pruned,
                compress=node in compressed and node not in pruned,
                after_execute=checkpointer.append if checkpointer is not None else None,
                reads=frozenset(),
            )
            for node in (int(v) for v in np.asarray(queries, dtype=np.int64))
        ]
        return self._run_items(items, checkpointer)

    def _run_items(
        self, items: list[WorkItem], checkpointer: "RunCheckpointer | None"
    ) -> RunResult:
        """One plain run of prepared items: dispatch, collect, seal the checkpoint."""
        if self.observer is not None:
            self.observer.on_run_start(len(items))
        result = RunResult()
        result.extend(run_items(self, items)[0])
        if checkpointer is not None:
            checkpointer.mark_complete()
        return result

    def run_with_budget_guard(
        self,
        queries: np.ndarray,
        pruned: frozenset[int] | set[int] = frozenset(),
        completion_reserve: int = 16,
        checkpointer: "RunCheckpointer | None" = None,
    ) -> RunResult:
        """Budget-enforcing execution (the hard constraint of paper Eq. 2).

        Prompt token counts are known *before* any LLM call, so the guard
        rations exactly: a query keeps its neighbor text only if, after
        paying for the full prompt, the remaining budget still covers the
        zero-shot floor of every query left.  ``completion_reserve`` headroom
        is kept per query for responses.  If even the all-zero-shot floor
        does not fit, the guard raises up front — spending past a hard
        budget is never acceptable.

        Static planning (Sec. V-C1's τ formula) should normally keep the
        guard inactive; this is the safety net for estimate error.

        The guard's keep-or-prune decision for query *i* reads the ledger
        *after* queries before it have charged — an inherently sequential
        chain.  With a ``scheduler`` the run therefore dispatches in
        canonical order regardless of dispatch mode (each item carries its
        decision as a deferred callable), keeping behaviour bit-identical
        to serial while still accounting batch overlap.
        """
        if self.ledger is None or self.ledger.budget is None:
            raise ValueError("run_with_budget_guard needs an engine ledger with a budget")
        if completion_reserve < 0:
            raise ValueError("completion_reserve must be >= 0")
        tokenizer = self.llm.tokenizer
        nodes = [int(v) for v in np.asarray(queries, dtype=np.int64)]
        executed = checkpointer.executed if checkpointer is not None else {}
        # Exact zero-shot floor per query (tokenizer only — no LLM spend).
        # Already-checkpointed queries replay for free, so they floor at 0.
        floors = []
        for node in nodes:
            if node in executed:
                floors.append(0)
                continue
            prompt, _ = self.build_prompt(node, include_neighbors=False)
            floors.append(tokenizer.count(prompt) + completion_reserve)
        floor_after = np.concatenate([np.cumsum(np.asarray(floors[::-1]))[::-1][1:], [0]])
        if self.ledger.would_exceed(int(sum(floors))):
            raise RuntimeError(
                f"token budget cannot cover the all-zero-shot floor of {len(nodes)} "
                f"queries ({self.ledger.remaining:.0f} tokens left)"
            )

        def decide_include(node: int, position: int) -> bool:
            """The guard's rationing decision, evaluated at execution time."""
            if node in pruned:
                return False
            prompt, _ = self.build_prompt(node, include_neighbors=True)
            cost = tokenizer.count(prompt) + completion_reserve
            return not self.ledger.would_exceed(cost + int(floor_after[position]))

        items = [
            WorkItem(
                node=node,
                cached=executed.get(node),
                decide_include=(lambda node=node, i=i: decide_include(node, i)),
                after_execute=checkpointer.append if checkpointer is not None else None,
            )
            for i, node in enumerate(nodes)
        ]
        return self._run_items(items, checkpointer)
