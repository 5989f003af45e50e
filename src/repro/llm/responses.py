"""Formatting and parsing of the ``Category: ['XX']`` response protocol.

The paper's prompt templates ask the model to "output the most likely
category as a Python list: Category: ['XX']".  The simulated models emit
exactly that, and the engine parses it back into a class index; parsing is
deliberately tolerant (case, whitespace, bare names) the way production
response parsers have to be with real LLM output.
"""

from __future__ import annotations

import re

_CATEGORY_RE = re.compile(r"category\s*:\s*\[\s*['\"]([^'\"]+)['\"]\s*\]", re.IGNORECASE)

#: Explicit abstain sentinel: a completion that names no known class parses
#: to this instead of raising, so the engine's degradation ladder (and plain
#: accuracy accounting, which scores it incorrect) can handle it uniformly.
ABSTAIN = None

#: Handed on in place of a parsed label (which may be :data:`ABSTAIN`) when
#: the completion has not been parsed yet, so each completion is parsed once.
UNPARSED = object()


def format_category_response(class_name: str) -> str:
    """Render the canonical response line for ``class_name``."""
    if not class_name:
        raise ValueError("class_name must be non-empty")
    return f"Category: ['{class_name}']"


def _normalize(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def parse_category_response(text: str, class_names: list[str]) -> int | None:
    """Extract the predicted class index from a model response.

    Tries, in order: the canonical ``Category: ['XX']`` pattern, then a
    normalized whole-response match, then the first class name appearing as a
    normalized substring.  Malformed input — a non-string, an empty or
    whitespace-only completion, or garbage naming no known class — returns
    the :data:`ABSTAIN` sentinel instead of raising.

    **Contract (fuzz-locked): no completion value can raise.**  Real APIs
    and the chaos subsystem's malformed-payload faults produce truncated,
    mojibake and outright binary-garbage completions; every one of them must
    parse or abstain, never abort a run.  Only a misconfigured
    ``class_names`` (empty, or holding non-strings) raises — that is a
    programming error, not response noise.
    """
    if not class_names:
        raise ValueError("class_names must be non-empty")
    normalized = {}
    for i, name in enumerate(class_names):
        key = _normalize(name)
        # A name that normalizes away entirely can never be matched — and an
        # empty key would spuriously match symbol-only completions.
        if key and key not in normalized:
            normalized[key] = i
    if not isinstance(text, str):
        return ABSTAIN
    try:
        if not text.strip():
            return ABSTAIN
        match = _CATEGORY_RE.search(text)
        candidates = []
        if match:
            candidates.append(match.group(1))
        candidates.append(text.strip())
        for candidate in candidates:
            idx = normalized.get(_normalize(candidate))
            if idx is not None:
                return idx
        blob = _normalize(text)
        for key, idx in normalized.items():
            if key in blob:
                return idx
        return ABSTAIN
    except (ValueError, TypeError, re.error):  # pragma: no cover - belt and
        # braces for exotic string subclasses; the contract is abstain, not
        # abort.
        return ABSTAIN
