"""Shared-prefix analysis and batch planning (paper Sec. II-C).

LLM-serving systems (PagedAttention, Hydragen, cascade inference) avoid
recomputing the KV cache of a prompt prefix shared with the previous
request.  The paper notes these techniques need white-box access, which the
"LLMs as predictors" paradigm does not have — but measuring their *ceiling*
on the same workload quantifies how much the paper's black-box strategies
recover by other means.

Two layers live here:

* the passive analyzer (:func:`analyze_prefix_sharing`) — for an ordered
  batch of prompts, how many prompt tokens could be served from a prefix
  cache (each prompt shares with its predecessor, the serving-system
  model), with the greedy lexicographic reordering row-sorting approaches
  use to maximize that sharing; and
* the batch planner (:func:`plan_prefix_batches`) — the active form the
  scheduler consumes: prompts are token-sorted, grouped by longest common
  prefix into batches of at most ``max_batch_size``, and the resulting
  :class:`PrefixPlan` carries per-prompt shared-token counts the ledgers
  and cost reports credit as the prompt-cache discount.

Planning is accounting-only: a plan never changes which prompts execute or
in what canonical order, so simulated-mode runs stay bit-identical to
serial runs with or without it.  Prompts are split by
:func:`~repro.text.tokenizer.tokenize`, the function every
:class:`~repro.text.tokenizer.Tokenizer` counts with, so token totals equal
the LLM's billed ``prompt_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.tokenizer import tokenize


def shared_prefix_tokens(a: str, b: str) -> int:
    """Number of leading tokens shared by two prompts."""
    return _lcp(tuple(tokenize(a)), tuple(tokenize(b)))


def _lcp(ta: tuple[str, ...], tb: tuple[str, ...]) -> int:
    shared = 0
    for x, y in zip(ta, tb):
        if x != y:
            break
        shared += 1
    return shared


def sort_for_prefix_sharing(prompts: list[str]) -> list[int]:
    """Ordering that maximizes adjacent prefix sharing (lexicographic sort).

    Returns indices into ``prompts``.  Lexicographic order is the classical
    row-sorting heuristic: prompts with equal prefixes become adjacent, so
    each pays its shared prefix at most once.  Equal prompts tie-break on
    their original index, so the ordering is a deterministic function of the
    input alone.
    """
    return sorted(range(len(prompts)), key=lambda i: (prompts[i], i))


@dataclass(frozen=True)
class PrefixSharingReport:
    """Token accounting of a prompt batch under prefix caching."""

    total_tokens: int
    shared_tokens: int
    num_prompts: int

    @property
    def paid_tokens(self) -> int:
        return self.total_tokens - self.shared_tokens

    @property
    def savings_fraction(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.shared_tokens / self.total_tokens


def analyze_prefix_sharing(
    prompts: list[str],
    reorder: bool = True,
) -> PrefixSharingReport:
    """Measure prefix-cache savings over a batch of prompts.

    With ``reorder=True`` the batch is first lexicographically sorted (the
    optimization white-box systems apply); otherwise the given order is
    analyzed as-is.  Each prompt's tokens shared with its immediate
    predecessor count as cache hits.
    """
    if not prompts:
        return PrefixSharingReport(total_tokens=0, shared_tokens=0, num_prompts=0)
    order = sort_for_prefix_sharing(prompts) if reorder else list(range(len(prompts)))
    tokens = [tuple(tokenize(p)) for p in prompts]
    total = sum(len(t) for t in tokens)
    shared = 0
    for prev, current in zip(order, order[1:]):
        shared += _lcp(tokens[prev], tokens[current])
    return PrefixSharingReport(total_tokens=total, shared_tokens=shared, num_prompts=len(prompts))


@dataclass(frozen=True)
class PrefixPlan:
    """A batch-forming plan over one wave's prompts.

    ``order`` is the token-sorted accounting order (a permutation of
    ``range(num_prompts)``); ``batches`` partitions that order into groups
    of at most the planner's ``max_batch_size``, cut where the longest
    common prefix between sorted neighbors is smallest, so each batch keeps
    its high-sharing runs intact.  ``shared_by_prompt`` is indexed by the
    *original* prompt position: the tokens that prompt serves from the
    prefix cache of its in-batch predecessor (the first prompt of every
    batch pays its prefix in full — a cache starts cold per batch).
    """

    order: tuple[int, ...]
    batches: tuple[tuple[int, ...], ...]
    shared_by_prompt: tuple[int, ...]
    report: PrefixSharingReport

    @property
    def num_batches(self) -> int:
        return len(self.batches)


def _cut_batches(
    lcp: list[int], num_prompts: int, num_batches: int, max_batch_size: int
) -> list[int]:
    """Boundary positions splitting ``num_prompts`` sorted prompts into
    exactly ``num_batches`` runs of at most ``max_batch_size``, minimizing
    the shared-prefix tokens lost at the cuts.

    ``lcp[j]`` is the prefix shared between sorted positions ``j-1`` and
    ``j`` (``lcp[0]`` unused); cutting between them forfeits it.  Small DP —
    waves are at most a few dozen prompts — with a deterministic earliest-cut
    tie-break.
    """
    infinity = float("inf")
    # cost[k][i]: best forfeited-LCP total splitting the first i prompts
    # into k batches; choice[k][i]: the start of the k-th batch.
    cost = [[infinity] * (num_prompts + 1) for _ in range(num_batches + 1)]
    choice = [[0] * (num_prompts + 1) for _ in range(num_batches + 1)]
    cost[0][0] = 0.0
    for k in range(1, num_batches + 1):
        for i in range(1, num_prompts + 1):
            for start in range(max(0, i - max_batch_size), i):
                previous = cost[k - 1][start]
                if previous is infinity:
                    continue
                total = previous + (lcp[start] if start > 0 else 0)
                if total < cost[k][i]:
                    cost[k][i] = total
                    choice[k][i] = start
    boundaries = []
    position = num_prompts
    for k in range(num_batches, 0, -1):
        boundaries.append(choice[k][position])
        position = choice[k][position]
    return sorted(boundaries)  # first element is always 0


def plan_prefix_batches(
    prompts: list[str], max_batch_size: int | None = None
) -> PrefixPlan:
    """Group a wave's prompts into prefix-sharing batches.

    Prompts are sorted token-lexicographically (original index as the
    deterministic tie-break) and partitioned into ``ceil(n / max_batch_size)``
    consecutive runs — the same batch count the scheduler's plain chunking
    produces, so wave accounting stays comparable — choosing the cut points
    that forfeit the least shared prefix.  ``max_batch_size=None`` plans one
    batch over the whole wave.

    The returned plan is pure accounting: its ``order`` and ``batches`` are
    a permutation/partition of the input positions, and
    ``report.paid_tokens + report.shared_tokens == report.total_tokens``.
    """
    if max_batch_size is not None and max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    n = len(prompts)
    if n == 0:
        return PrefixPlan(
            order=(),
            batches=(),
            shared_by_prompt=(),
            report=PrefixSharingReport(total_tokens=0, shared_tokens=0, num_prompts=0),
        )
    tokens = [tuple(tokenize(p)) for p in prompts]
    order = sorted(range(n), key=lambda i: (tokens[i], i))
    lcp = [0] * n
    for j in range(1, n):
        lcp[j] = _lcp(tokens[order[j - 1]], tokens[order[j]])
    size = n if max_batch_size is None else max_batch_size
    num_batches = (n + size - 1) // size
    boundaries = _cut_batches(lcp, n, num_batches, size)
    starts = set(boundaries)
    batches: list[tuple[int, ...]] = []
    shared = [0] * n
    for j, original in enumerate(order):
        if j in starts:
            batches.append(())
        else:
            shared[original] = lcp[j]
        batches[-1] = batches[-1] + (original,)
    total = sum(len(t) for t in tokens)
    report = PrefixSharingReport(
        total_tokens=total, shared_tokens=sum(shared), num_prompts=n
    )
    return PrefixPlan(
        order=tuple(order),
        batches=tuple(batches),
        shared_by_prompt=tuple(shared),
        report=report,
    )
