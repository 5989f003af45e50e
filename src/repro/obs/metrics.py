"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every run of the multi-query engine spends tokens, money, retries and
degraded answers; this registry is the single place those quantities
accumulate.  Series are identified by a metric name plus a sorted label
set (``dataset``, ``method``, ``strategy``, ``model``, ``outcome``, ...),
mirroring the Prometheus data model, and the registry renders both the
Prometheus text exposition format and a JSON snapshot.

The registry is deliberately dependency-free and synchronous: instruments
are plain Python objects, registration is get-or-create, and nothing here
touches the wall clock — determinism is inherited from whoever observes
values into it.
"""

from __future__ import annotations

import json
import math
import re

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for per-query token counts.
TOKEN_BUCKETS = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0)

#: Default histogram buckets for simulated per-query latencies (seconds).
LATENCY_BUCKETS = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (token totals, event counts)."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += float(amount)


class Gauge:
    """Point-in-time value (breaker state, queue depth, budget remaining)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)


class Histogram:
    """Fixed-bucket histogram (per-query tokens, latencies, round sizes).

    ``buckets`` are inclusive upper bounds in strictly increasing order; an
    implicit ``+Inf`` bucket always exists.  Bucket counts are stored
    per-bucket and cumulated only at exposition time, matching Prometheus.
    """

    def __init__(self, buckets: tuple[float, ...] = TOKEN_BUCKETS):
        if not buckets:
            raise ValueError("need at least one bucket bound")
        if list(buckets) != sorted(set(buckets)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out, running = [], 0
        for bound, n in zip((*self.bounds, math.inf), self.bucket_counts):
            running += n
            out.append((bound, running))
        return out


class MetricsRegistry:
    """Labeled metric families with get-or-create registration.

    A family is one metric name with one type and help string; each distinct
    label set under it is an independent series.  Re-registering the same
    name with a different type (or different histogram buckets) raises —
    silent type confusion is how dashboards lie.
    """

    def __init__(self) -> None:
        self._families: dict[str, dict] = {}

    # ------------------------------------------------------------ registration

    def _family(self, name: str, kind: str, help: str, **extra) -> dict:
        family = self._families.get(_check_name(name))
        if family is None:
            family = {"kind": kind, "help": help, "series": {}, **extra}
            self._families[name] = family
        elif family["kind"] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family['kind']}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        series = family["series"]
        if key not in series:
            series[key] = Counter()
        return series[key]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        family = self._family(name, "gauge", help)
        key = _label_key(labels)
        series = family["series"]
        if key not in series:
            series[key] = Gauge()
        return series[key]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = TOKEN_BUCKETS,
        **labels: str,
    ) -> Histogram:
        family = self._family(name, "histogram", help, buckets=tuple(buckets))
        if family["buckets"] != tuple(buckets):
            raise ValueError(f"histogram {name!r} already registered with other buckets")
        key = _label_key(labels)
        series = family["series"]
        if key not in series:
            series[key] = Histogram(buckets)
        return series[key]

    # ----------------------------------------------------------------- queries

    def value(self, name: str, **labels: str) -> float:
        """Exact-series value (counter/gauge) or observation count (histogram)."""
        family = self._families[name]
        metric = family["series"][_label_key(labels)]
        return metric.count if family["kind"] == "histogram" else metric.value

    def total(self, name: str, **label_filter: str) -> float:
        """Sum over every series of ``name`` matching the label filter.

        Unknown names total to 0.0 so report code can ask about metrics a
        run never touched (e.g. cache counters on an uncached run).
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        wanted = {(k, str(v)) for k, v in label_filter.items()}
        total = 0.0
        for key, metric in family["series"].items():
            if wanted <= set(key):
                total += metric.count if family["kind"] == "histogram" else metric.value
        return total

    def series(self, name: str) -> dict[tuple[tuple[str, str], ...], float]:
        """All series of ``name`` as {label_key: value} (empty if unknown)."""
        family = self._families.get(name)
        if family is None:
            return {}
        kind = family["kind"]
        return {
            key: (m.count if kind == "histogram" else m.value)
            for key, m in family["series"].items()
        }

    # -------------------------------------------------------------- exposition

    def snapshot(self) -> dict:
        """JSON-able snapshot of every family and series."""
        families = {}
        for name in sorted(self._families):
            family = self._families[name]
            series_out = []
            for key in sorted(family["series"]):
                metric = family["series"][key]
                entry: dict[str, object] = {"labels": dict(key)}
                if family["kind"] == "histogram":
                    entry["count"] = metric.count
                    entry["sum"] = metric.sum
                    entry["buckets"] = [
                        {"le": "+Inf" if math.isinf(b) else b, "count": n}
                        for b, n in metric.cumulative()
                    ]
                else:
                    entry["value"] = metric.value
                series_out.append(entry)
            families[name] = {
                "kind": family["kind"],
                "help": family["help"],
                "series": series_out,
            }
        return {"families": families}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of the registry."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family["help"]:
                lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['kind']}")
            for key in sorted(family["series"]):
                metric = family["series"][key]
                if family["kind"] == "histogram":
                    for bound, count in metric.cumulative():
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        labels = _render_labels((*key, ("le", le)))
                        lines.append(f"{name}_bucket{labels} {count}")
                    lines.append(f"{name}_sum{_render_labels(key)} {_format_value(metric.sum)}")
                    lines.append(f"{name}_count{_render_labels(key)} {metric.count}")
                else:
                    lines.append(f"{name}{_render_labels(key)} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + body + "}"


def _escape(value: str) -> str:
    """Label-value escaping per the text exposition format: backslash,
    double quote and line feed."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping: only backslash and line feed (quotes stay
    literal — HELP text is not quoted)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
