"""Outside-in span tracing for the slowphoton benchmark.

The tracer replaces public names in slowphoton's module namespaces with
thin wrappers that record one span per call: (name, start, end, parent,
item, count).  Nothing inside the library changes; a wrapper only sees
the calls that go through the name it replaced, which is why the same
function is wrapped under every namespace that calls it (for example
``cli.thickness_scan`` and ``observables.thickness_scan``).  Spans stay
in memory and are written out once, when the run ends.

``layer_metrics`` turns one pass worth of spans into the per-layer
metrics named in BENCHMARK.json.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from slowphoton import cli, observables, propagate

_CLOSED_FORMS = (
    "analytic_matched",
    "analytic_parts_matched",
    "analytic_parts_broad",
    "approx_broad",
    "adiabatic_eit",
    "total_eit",
    "gaussian_broad",
    "phi_plus",
)


def _nu_len(args, kwargs):
    nu = args[1] if len(args) > 1 else kwargs["nu"]
    return int(getattr(nu, "size", 1))


def _terms_len(args, kwargs):
    return len(args[0] if args else kwargs["terms"])


def wrap_table() -> list[tuple[object, str, str, Optional[Callable]]]:
    """(module, attribute, span name, count function) for every wrapped name."""
    table = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "validate", "cli.validate", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "sample", "waveforms.sample", None),
        (cli, "eit_params", "media.eit_params", None),
        (cli, "propagate_numeric", "propagate.numeric", None),
        (cli, "thickness_scan", "observables.thickness_scan", None),
        (cli, "pulse_area", "observables.integral", None),
        (cli, "integrated_intensity", "observables.integral", None),
        (propagate, "spectral_response", "media.spectral_response", _nu_len),
        (propagate, "spectral_amplitude", "waveforms.spectral_amplitude", _nu_len),
        (propagate, "time_amplitude", "waveforms.time_amplitude", None),
        (propagate, "medium_poles", "media.medium_poles", None),
        (propagate, "eit_params", "media.eit_params", None),
        (propagate, "merge_poles", "rational.merge_poles", None),
        (propagate, "partial_fractions", "rational.partial_fractions", None),
        (propagate, "eval_pole_terms", "rational.eval_pole_terms", _terms_len),
        (propagate, "quad", "propagate.quad", None),
        (observables, "thickness_scan", "observables.thickness_scan", None),
        (observables, "quad", "observables.quad", None),
    ]
    # closed forms called by the CLI, and the ones total_eit calls in turn
    for name in _CLOSED_FORMS:
        table.append((cli, name, "propagate.closed_form", None))
        table.append((propagate, name, "propagate.closed_form", None))
    return table


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    item: str
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped names; install() and uninstall() swap them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, count):
        def traced(*args, **kwargs):
            index = self._open(name)
            if count is not None:
                self.spans[index].count = count(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def install(self, table) -> None:
        for module, attr, name, count in table:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, item, count."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.item, s.count]) + "\n")


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Self time of spans[offset:], with parents indexed into the full list."""
    own = [s.duration for s in spans[offset:]]
    for s in spans[offset:]:
        if s.parent >= offset:
            own[s.parent - offset] -= s.duration
    return own


def layer_metrics(spans: list[Span], offset: int, manifests: list[dict], bytes_written: int) -> dict:
    """Per-layer metrics of the spans recorded from index `offset` on (one pass)."""
    mine = spans[offset:]
    own = self_times(spans, offset)

    def total(name, values=None):
        vals = values if values is not None else [s.duration for s in mine]
        return sum(v for s, v in zip(mine, vals) if s.name == name)

    def calls(name):
        return sum(1 for s in mine if s.name == name)

    def parent_name(s):
        return spans[s.parent].name if s.parent >= 0 else ""

    def counted(name, parent=None):
        return sum(
            s.count
            for s in mine
            if s.name == name and (parent is None or parent_name(s) == parent)
        )

    top_closed = sum(
        s.duration
        for s in mine
        if s.name == "propagate.closed_form" and parent_name(s) == "cli.run_scenario"
    )
    numeric = [m["convergence"]["numeric"] for m in manifests if "numeric" in m["convergence"]]
    fft = [
        (m["scenario"]["grid"]["n_points"], m["convergence"]["numeric"]["n_freq"])
        for m in manifests
        if m["convergence"].get("numeric", {}).get("strategy") == "fft"
    ]
    rational = ("rational.merge_poles", "rational.partial_fractions", "rational.eval_pole_terms")
    return {
        "propagate.numeric_s": total("propagate.numeric"),
        "propagate.numeric_self_s": total("propagate.numeric", own),
        "propagate.numeric_calls": calls("propagate.numeric"),
        "propagate.levels": sum(c["iterations"] + 1 for c in numeric),
        "propagate.freq_samples": counted("media.spectral_response", "propagate.numeric"),
        "propagate.direct_frac": (
            sum(1 for c in numeric if c.get("strategy") == "direct") / len(numeric)
            if numeric
            else 0.0
        ),
        "propagate.fft_used_frac": (
            sum(used for used, _ in fft) / sum(n for _, n in fft) if fft else 0.0
        ),
        "propagate.closed_form_s": top_closed,
        "propagate.quad_calls": calls("propagate.quad"),
        "propagate.quad_s": total("propagate.quad"),
        "media.spectral_response_s": total("media.spectral_response"),
        "media.samples": counted("media.spectral_response"),
        "waveforms.spectral_amplitude_s": total("waveforms.spectral_amplitude"),
        "rational.self_s": sum(total(name, own) for name in rational),
        "rational.terms": counted("rational.eval_pole_terms"),
        "observables.scan_s": total("observables.thickness_scan"),
        "observables.quad_calls": calls("observables.quad"),
        "observables.quad_s": total("observables.quad"),
        "observables.integrals_s": total("observables.integral"),
        "cli.parse_validate_s": total("cli.load_config") + total("cli.validate"),
        "cli.self_s": total("cli.run_scenario", own),
        "cli.bytes_written": bytes_written,
    }

