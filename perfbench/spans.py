"""Per-layer spans recorded from outside the program.

Each layer of ``repro`` is a list of its public functions (:data:`LAYERS`).
:meth:`SpanRecorder.install` replaces every one of them with a wrapper
that, while recording is on, keeps a span ``(layer, start, end, parent,
node)`` in a list owned by the calling thread.  Nothing is written until
:meth:`SpanRecorder.write` runs at the end of the benchmark.

A layer's self time is its span's duration minus the time its child spans
cover.  A call into a layer that is already open on the same thread (the
tokenizer's ``count`` calling ``tokenize``, ``LedgerBook.charge`` calling
``BudgetLedger.charge``) belongs to the open span, so ``calls`` counts
entries into a layer, not every function call inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter
from pathlib import Path

#: Layer name -> functions wrapped, as ``(module, attribute path)``.  An
#: optional third element is the positional index of the queried node,
#: read from the ``node`` keyword when the caller passes it that way.
LAYERS: dict[str, list[tuple]] = {
    "graph.generate": [
        ("repro.graph.datasets", "generate_tag"),
        ("repro.experiments.common", "load_dataset"),
    ],
    "text.encode": [
        ("repro.text.encoders", f"{cls}.fit_transform")
        for cls in ("BagOfWordsEncoder", "TfidfEncoder", "LSAEncoder", "HashingEncoder")
    ],
    "core.inadequacy": [
        ("repro.core.inadequacy", "TextInadequacyScorer.fit"),
        ("repro.core.inadequacy", "TextInadequacyScorer.score"),
    ],
    "ml.mlp": [
        ("repro.ml.mlp", "MLPClassifier.fit"),
        ("repro.ml.mlp", "MLPClassifier.predict_proba"),
    ],
    "selection": [
        ("repro.selection.random_khop", "KHopRandomSelector.select", 2),
        ("repro.selection.sns", "SNSSelector.select", 2),
        ("repro.selection.base", "VanillaSelector.select", 2),
    ],
    "core.boosting": [("repro.core.boosting", "BoostingStepper.step")],
    "text.tokenize": [
        ("repro.text.tokenizer", "Tokenizer.tokenize"),
        ("repro.text.tokenizer", "Tokenizer.count"),
        ("repro.text.tokenizer", "Tokenizer.words"),
    ],
    "prompts.render": [
        ("repro.prompts.builder", "PromptBuilder.with_neighbors"),
        ("repro.prompts.builder", "PromptBuilder.zero_shot"),
    ],
    "llm.score": [("repro.llm.simulated", "SimulatedLLM._complete_with_confidence")],
    "llm.parse": [
        ("repro.runtime.engine", "parse_category_response"),
        ("repro.runtime.readiness", "parse_category_response"),
        ("repro.core.inadequacy", "parse_category_response"),
    ],
    "llm.cache": [("repro.llm.caching", "CachingLLM.complete")],
    "mqo.compress": [("repro.mqo.compression", "PromptCompressor.compress")],
    "mqo.prefix": [("repro.runtime.scheduler", "plan_prefix_batches")],
    "runtime.scheduler": [("repro.runtime.scheduler", "QueryScheduler.run_wave")],
    "runtime.readiness": [("repro.runtime.readiness", "execute_pipelined")],
    "runtime.engine": [
        ("repro.runtime.engine", "MultiQueryEngine.execute_query", 1),
        ("repro.runtime.engine", "MultiQueryEngine.build_prompt", 1),
        ("repro.runtime.engine", "MultiQueryEngine.prepare_prompt", 1),
        ("repro.runtime.engine", "MultiQueryEngine.preview_prompt", 1),
        ("repro.runtime.engine", "MultiQueryEngine.call_llm", 2),
        ("repro.runtime.engine", "MultiQueryEngine.finalize_prepared", 1),
        ("repro.runtime.engine", "MultiQueryEngine.surrogate_query", 1),
    ],
    "runtime.serve": [
        ("repro.runtime.serve", "ServingLayer.replay"),
        ("repro.runtime.serve", "ServingLayer.admit"),
    ],
    "core.budget": [
        ("repro.core.budget", f"{cls}.{name}")
        for cls in ("BudgetLedger", "LedgerBook")
        for name in ("charge", "would_exceed", "credit_shared")
    ],
    "io.journal": [("repro.runtime.serve", "ServeJournal.append_cycle")],
    "io.checkpoint": [
        ("repro.io.runs", "RunCheckpointer.append"),
        ("repro.io.runs", "RunCheckpointer.flush"),
        ("repro.io.runs", "load_checkpoint"),
    ],
    "obs": [
        ("repro.obs.instrument", f"Instrumentation.{name}")
        for name in (
            "span",
            "on_run_start",
            "on_query_end",
            "on_round_end",
            "on_deferral",
            "on_checkpoint_loaded",
            "on_checkpoint_flush",
            "write_trace",
        )
    ],
}


def _count_text(recorder: "SpanRecorder", args, result) -> None:
    recorder.counters["text.tokenize.texts"] += 1
    recorder.counters["text.tokenize.chars"] += len(args[1])
    recorder.distinct_texts.add(args[1])


def _count_shrunk(recorder: "SpanRecorder", args, result) -> None:
    recorder.counters["mqo.compress.shrunk"] += bool(result.changed)


def _count_checkpoint_bytes(recorder: "SpanRecorder", args, result) -> None:
    recorder.counters["io.checkpoint.bytes"] += args[0].path.stat().st_size


#: Counters taken after every call of a wrapped function, nested or not.
#: ``Tokenizer.count`` is left out because it tokenizes through ``tokenize``.
_AFTER = {
    ("repro.text.tokenizer", "Tokenizer.tokenize"): _count_text,
    ("repro.text.tokenizer", "Tokenizer.words"): _count_text,
    ("repro.mqo.compression", "PromptCompressor.compress"): _count_shrunk,
    ("repro.io.runs", "RunCheckpointer.flush"): _count_checkpoint_bytes,
}

#: Wrapped functions that return a context manager: their span covers the
#: manager's ``__enter__`` and ``__exit__``, not the body it guards.
_CONTEXT_FUNCTIONS = {("repro.obs.instrument", "Instrumentation.span")}


class _ThreadLog:
    """Spans, open-span stack and per-layer totals of one thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: Open spans as ``[layer, start, child_seconds, node, index]``.
        self.stack: list[list] = []
        self.open_layers: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()


class SpanRecorder:
    """Thread-local span lists plus per-layer counters, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.counters: Counter = Counter()
        self.distinct_texts: set[str] = set()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def open(self, layer: str, node: int | None = None) -> None:
        log = self._log()
        parent = log.stack[-1] if log.stack else None
        if node is None and parent is not None:
            node = parent[3]
        index = len(log.spans)
        log.spans.append((layer, 0.0, 0.0, parent[4] if parent else None, node))
        log.open_layers[layer] += 1
        log.stack.append([layer, time.perf_counter(), 0.0, node, index])

    def close(self) -> None:
        end = time.perf_counter()
        log = self._log()
        layer, start, child, node, index = log.stack.pop()
        log.open_layers[layer] -= 1
        duration = end - start
        log.self_seconds[layer] += duration - child
        log.calls[layer] += 1
        if log.stack:
            log.stack[-1][2] += duration
        log.spans[index] = (layer, start, end, log.spans[index][3], node)

    def span(self, name: str) -> "_Span":
        """Context manager for a span the benchmark itself opens."""
        return _Span(self, name)

    def _wrap(self, layer: str, fn, node_arg: int | None, after, context: bool):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            if recorder._log().open_layers[layer]:
                result = fn(*args, **kwargs)
            else:
                node = None
                if node_arg is not None:
                    node = args[node_arg] if len(args) > node_arg else kwargs.get("node")
                recorder.open(layer, None if node is None else int(node))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder.close()
                if context:
                    result = _TimedContext(recorder, layer, result)
            if after is not None:
                after(recorder, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` in place."""
        for layer, targets in LAYERS.items():
            for module_name, path, *node_arg in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                key = (module_name, path)
                wrapped = self._wrap(
                    layer,
                    vars(owner)[attr],
                    node_arg[0] if node_arg else None,
                    _AFTER.get(key),
                    key in _CONTEXT_FUNCTIONS,
                )
                setattr(owner, attr, wrapped)

    # ------------------------------------------------------------ reading

    def self_seconds(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.self_seconds)
        return total

    def calls(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.calls)
        return total

    def peak_worker_overlap(self, layer: str) -> int:
        """Most ``layer`` spans open at once on threads other than the first."""
        events = []
        for log in self._logs[1:]:
            for name, start, end, _, _ in log.spans:
                if name == layer:
                    events += [(start, 1), (end, -1)]
        peak = current = 0
        for _, delta in sorted(events):
            current += delta
            peak = max(peak, current)
        return peak

    def write(self, path: Path) -> Path:
        """Write every span as one JSON list per line:
        ``[layer, start_s, end_s, parent, node, thread]``.

        Times count from the earliest span.  ``parent`` indexes the
        parent span among the lines of the same ``thread``.
        """
        origin = min((s[1] for log in self._logs for s in log.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for thread, log in enumerate(self._logs):
                for layer, start, end, parent, node in log.spans:
                    row = [layer, round(start - origin, 7), round(end - origin, 7), parent, node, thread]
                    handle.write(json.dumps(row) + "\n")
        return path


class _Span:
    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        if self._recorder.enabled:
            self._recorder.open(self._name)

    def __exit__(self, *exc):
        if self._recorder.enabled:
            self._recorder.close()
        return False


class _TimedContext:
    """Times a wrapped context manager's enter and exit as spans of ``layer``."""

    def __init__(self, recorder: SpanRecorder, layer: str, inner):
        self._recorder = recorder
        self._layer = layer
        self._inner = inner

    def _timed(self, call, *args):
        if not self._recorder.enabled:
            return call(*args)
        self._recorder.open(self._layer)
        try:
            return call(*args)
        finally:
            self._recorder.close()

    def __enter__(self):
        return self._timed(self._inner.__enter__)

    def __exit__(self, *exc):
        return self._timed(self._inner.__exit__, *exc)
