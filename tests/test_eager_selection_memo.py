"""The pipelined planner's eager-selection memo equals an uncached selection.

``readiness.EagerSelections`` keeps each waiting node's eager selection
under its labeled support: the ``(member, label)`` pairs of the selector's
``label_support`` that the walk's view labels, the view being the engine's
labels overlaid with the running round's settled ones.  A stale entry would
not corrupt a run's records — the node would only fail to qualify and lose
its eager dispatch — so the end-to-end oracles cannot see it.  This property
drives random label additions to the engine and to the overlay, round
promotions and discards between walks on random graphs, and compares every
lookup with a fresh ``_select_under`` against the merged view; a lookup
whose support holds a still-unsettled node must return ``None``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.tag import TextAttributedGraph
from repro.runtime.readiness import EagerSelections
from repro.selection.registry import make_selector
from repro.text.corpus import NodeText

from tests.test_selection_memo import CLASSES, _engine, _graphs


@settings(max_examples=150, deadline=None)
@given(
    graph=_graphs(),
    method=st.sampled_from(["1-hop", "2-hop", "sns"]),
    data=st.data(),
)
def test_lookup_matches_uncached_selection(graph, method, data):
    n = graph.num_nodes
    labeled = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    engine = _engine(graph, make_selector(method), sorted(labeled))
    selections = EagerSelections(engine)
    overlay: dict[int, int] = {}
    node = st.integers(0, n - 1)
    label = st.integers(0, len(CLASSES) - 1)
    steps = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("walk"), st.sets(node, max_size=3)),
                st.tuples(st.just("label"), node, label),
                st.tuples(st.just("overlay"), node, label),
                st.tuples(st.just("restate"), node, st.integers(1, len(CLASSES) - 1)),
                st.tuples(st.just("promote")),
                st.tuples(st.just("discard"), node),
            ),
            max_size=40,
        )
    )
    for step in [("walk", set())] + steps + [("walk", set())]:
        if step[0] == "walk":
            unsettled = step[1]
            selections.begin(overlay)
            view = {**engine.label_map, **overlay}
            for v in range(n):
                support = engine.label_support(v)
                selected = selections.select(v, support, unsettled)
                if support & unsettled:
                    assert selected is None
                else:
                    assert selected == engine._select_under(v, view)
        elif step[0] == "label":
            if step[1] not in engine.label_map:
                engine.add_pseudo_label(step[1], step[2])
        elif step[0] == "overlay":
            overlay.setdefault(step[1], step[2])
        elif step[0] == "restate":
            # The overlay gives an engine-labeled node another label: the
            # view's values change while its labeled set does not.
            restated = sorted(set(engine.label_map) - set(overlay))
            if restated:
                v = restated[step[1] % len(restated)]
                overlay[v] = (engine.label_map[v] + step[2]) % len(CLASSES)
        elif step[0] == "promote":
            # A round closes: its settled labels publish, a new overlay opens.
            for v, lab in overlay.items():
                if v not in engine.label_map:
                    engine.add_pseudo_label(v, lab)
            overlay = {}
        else:
            selections.discard(step[1])


def test_a_restated_label_reselects():
    """The key holds label values: the overlay changing the label of an
    already labeled support member must re-run the selector."""
    graph = TextAttributedGraph.from_edges(
        num_nodes=3,
        edges=np.asarray([[0, 1], [1, 2]], dtype=np.int64),
        labels=np.asarray([0, 1, 2], dtype=np.int64),
        texts=[NodeText(f"t{i}", f"a{i}") for i in range(3)],
        features=np.zeros((3, 2), dtype=np.float32),
        class_names=CLASSES,
    )
    engine = _engine(graph, make_selector("1-hop"), [1])
    selections = EagerSelections(engine)
    support = engine.label_support(0)
    selections.begin({})
    assert [(sn.node, sn.label) for sn in selections.select(0, support, ())] == [(1, 1)]
    overlay = {1: 2}
    selections.begin(overlay)
    selected = selections.select(0, support, ())
    assert [(sn.node, sn.label) for sn in selected] == [(1, 2)]
    assert selected == engine._select_under(0, {**engine.label_map, **overlay})
