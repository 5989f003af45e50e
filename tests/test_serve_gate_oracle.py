"""The serving layer's budget gate against its three-block predecessor.

:func:`reference_gate` is the gate as it was before it walked the shared
rung list of :mod:`repro.runtime.fallback`: one render → count → afford →
reserve block per LLM rung, string pins and string tiers.  It is kept here
as the oracle.  Over drawn pins, request forms, engine shapes, budgets and
prior in-wave reservations, the live gate must pick the same rung and
leave the same reservation map.
"""

from __future__ import annotations

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.llm.pricing import PRICES_PER_1K_TOKENS, cost_usd
from repro.mqo.compression import PromptCompressor
from repro.runtime.fallback import COMPRESSED, FULL, PRUNED, DegradationLadder
from repro.runtime.serve import (
    _GLOBAL,
    AdmissionPolicy,
    ServeRequest,
    ServingLayer,
    TenantSpec,
)

PINS = {"full": FULL, "compress": COMPRESSED, "degrade": PRUNED}


def _estimate_usd(layer, prompt_tokens):
    if layer.price_model is None:
        return 0.0
    if layer.price_model.lower() not in PRICES_PER_1K_TOKENS:
        return 0.0
    return cost_usd(layer.price_model, prompt_tokens, layer.policy.completion_reserve)


def _affordable(layer, tenant, cost, usd, pending):
    t_tokens, t_usd = pending.get(tenant, (0, 0.0))
    if layer.book.ledger(tenant).would_exceed(cost + t_tokens, usd + t_usd):
        return False
    if layer.book.global_ledger is None:
        return True
    g_tokens, g_usd = pending.get(_GLOBAL, (0, 0.0))
    return not layer.book.global_ledger.would_exceed(cost + g_tokens, usd + g_usd)


def _reserve(pending, tenant, cost, usd):
    for key in (tenant, _GLOBAL):
        tokens_so_far, usd_so_far = pending.get(key, (0, 0.0))
        pending[key] = (tokens_so_far + cost, usd_so_far + usd)


def reference_gate(layer, request, pin, pending):
    """The pre-rung-list gate: returns a tier name or ``None``."""
    engine = layer._engine_for(request.node)
    tokenizer = engine.llm.tokenizer
    reserve = layer.policy.completion_reserve
    tenant = request.tenant
    if pin == "compress" and engine.compressor is None:
        pin = "full"
    want_full = request.include_neighbors and pin == "full"
    if want_full:
        prompt, _ = engine.build_prompt(request.node, include_neighbors=True)
        cost = tokenizer.count(prompt) + reserve
        usd = _estimate_usd(layer, cost - reserve)
        if _affordable(layer, tenant, cost, usd, pending):
            _reserve(pending, tenant, cost, usd)
            return "full"
    if (
        request.include_neighbors
        and pin in ("full", "compress")
        and engine.compressor is not None
    ):
        prompt = engine.preview_prompt(request.node, include_neighbors=True, compress=True)
        cost = tokenizer.count(prompt) + reserve
        usd = _estimate_usd(layer, cost - reserve)
        if _affordable(layer, tenant, cost, usd, pending):
            _reserve(pending, tenant, cost, usd)
            return "compressed"
    prompt, _ = engine.build_prompt(request.node, include_neighbors=False)
    cost = tokenizer.count(prompt) + reserve
    usd = _estimate_usd(layer, cost - reserve)
    if _affordable(layer, tenant, cost, usd, pending):
        _reserve(pending, tenant, cost, usd)
        return "pruned"
    if engine.ladder is not None:
        return "surrogate"
    return None


token_budgets = st.one_of(st.none(), st.integers(min_value=1, max_value=1200))
usd_budgets = st.sampled_from([None, 0.0002, 0.0004, 0.0006, 0.001])
reservations = st.tuples(
    st.integers(min_value=0, max_value=400), st.sampled_from([0.0, 0.0001, 0.0003])
)


class TestGateMatchesReference:
    @given(
        pin=st.sampled_from(sorted(PINS)),
        include_neighbors=st.booleans(),
        with_compressor=st.booleans(),
        with_ladder=st.booleans(),
        price_model=st.sampled_from([None, "gpt-3.5"]),
        completion_reserve=st.sampled_from([0, 32]),
        tenant_tokens=token_budgets,
        tenant_usd=usd_budgets,
        global_tokens=token_budgets,
        global_usd=usd_budgets,
        prior=st.dictionaries(st.sampled_from(["t", "other", _GLOBAL]), reservations),
        query=st.integers(min_value=0, max_value=15),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_rung_and_reservations(
        self,
        make_tiny_engine,
        tiny_split,
        pin,
        include_neighbors,
        with_compressor,
        with_ladder,
        price_model,
        completion_reserve,
        tenant_tokens,
        tenant_usd,
        global_tokens,
        global_usd,
        prior,
        query,
    ):
        engine = make_tiny_engine(
            compressor=PromptCompressor(target_ratio=0.5) if with_compressor else None,
            ladder=DegradationLadder() if with_ladder else None,
        )
        layer = ServingLayer(
            engine,
            [TenantSpec("t", token_budget=tenant_tokens, usd_budget=tenant_usd)],
            policy=AdmissionPolicy(completion_reserve=completion_reserve),
            global_budget=global_tokens,
            global_usd_budget=global_usd,
            price_model=price_model,
        )
        request = ServeRequest(
            "t", int(tiny_split.queries[query]), include_neighbors=include_neighbors
        )
        expected_pending = dict(prior)
        expected = reference_gate(layer, request, pin, expected_pending)
        pending = dict(prior)
        rung = layer._gate(request, PINS[pin], pending)
        event(f"rung={expected}")
        assert (rung.name if rung is not None else None) == expected
        assert pending == expected_pending
