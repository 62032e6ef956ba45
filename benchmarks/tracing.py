"""In-memory span tracing of imdbeam's layers from outside the package.

The tracer wraps public functions by rebinding the module attributes their
callers look up (``imdbeam.cli.transmit`` is what ``run_scenario`` calls,
``imdbeam.array.apply_polynomial`` what ``transmit`` calls).  Each call
becomes a span ``(name, start, end, parent, scenario)``; ``array_gain`` only
counts calls.  Wrappers are installed for a traced scenario and removed
afterwards, so untraced runs execute the original functions.

``uniform_phase`` is called once per phase draw (1.28 M times in a
``mc_baseline`` scenario), so even a counting wrapper would dominate the
baseline's self time.  Its calls are counted by a separate tracer over
``DRAW_POINTS`` in an untimed pass.

The run is single-threaded and the baseline runs with ``workers=1``, so no
layer waits on another: a span's self time is all busy time.

If a traced attribute disappears, or an expected span never fires on a
workload, :class:`TraceCoverageError` is raised: a rename or move inside the
package then breaks the trace visibly instead of reporting zeros.
"""

import importlib
import time

# (metric prefix, module whose attribute the caller looks up, attribute, kind)
TRACE_POINTS = (
    ("cli.parse_config", "imdbeam.cli", "parse_config", "span"),
    ("cli.run_scenario", "imdbeam.cli", "run_scenario", "span"),
    ("cli.emit", "imdbeam.cli", "emit", "span"),
    ("array.steer_tones", "imdbeam.cli", "steer_tones", "span"),
    ("array.transmit", "imdbeam.cli", "transmit", "span"),
    ("array.pattern_sweep", "imdbeam.cli", "pattern_sweep", "span"),
    ("array.far_field_receive", "imdbeam.metrics", "far_field_receive", "span"),
    ("nonlinearity.apply_polynomial", "imdbeam.array", "apply_polynomial", "span"),
    ("nonlinearity.band_filter", "imdbeam.array", "band_filter", "span"),
    ("metrics.port_vs_ota_report", "imdbeam.cli", "port_vs_ota_report", "span"),
    ("metrics.array_gain", "imdbeam.metrics", "array_gain", "count"),
    ("baseline.matched_noise_config", "imdbeam.cli", "matched_noise_config", "span"),
    ("baseline.mean_pattern", "imdbeam.cli", "mean_pattern", "span"),
)
# counted in the untimed pass: every phase draw, and the baseline patterns
# they are drawn for
DRAW_POINTS = (
    ("baseline.uniform_phase", "imdbeam.baseline", "uniform_phase", "count"),
    ("baseline.mean_pattern", "imdbeam.cli", "mean_pattern", "count"),
)
ROOT_SPAN = "cli.main"


class TraceCoverageError(RuntimeError):
    """A traced function is gone or an expected span never fired."""


class Tracer:
    """Spans and call counts of one traced run, kept in memory."""

    def __init__(self, points=TRACE_POINTS):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, scenario)
        self.counts: dict[str, int] = {
            name: 0 for name, _, _, kind in points if kind == "count"
        }
        self.scenario = -1
        self._stack: list[int] = []
        self._ids: dict[str, int] = {}
        self._bindings = []
        for name, module, attr, kind in points:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                raise TraceCoverageError(
                    f"{module}.{attr} no longer exists; the layer traced as "
                    f"{name} was renamed or moved, update benchmarks/tracing.py"
                )
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original) if kind == "span" else self._counted(name, original)
            self._bindings.append((mod, attr, original, wrapped))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        name_id = self._id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.scenario)

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def summary(self, scale=None) -> dict[str, dict]:
        """Per name: ``calls``, total ``busy_s`` and ``self_s`` (span minus
        the time its direct children cover).  ``scale`` maps a scenario to
        the factor its span durations are multiplied by."""
        scale = scale or {}
        child = [0.0] * len(self.spans)
        for _, start, end, parent, scenario in self.spans:
            if parent >= 0:
                child[parent] += (end - start) * scale.get(scenario, 1.0)
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for (name_id, start, end, _, scenario), covered in zip(self.spans, child):
            s = out[self.names[name_id]]
            busy = (end - start) * scale.get(scenario, 1.0)
            s["calls"] += 1
            s["busy_s"] += busy
            s["self_s"] += busy - covered
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})["calls"] = n
        return out

    def calls_by_scenario(self, name: str) -> dict[int, int]:
        name_id = self._ids.get(name)
        out: dict[int, int] = {}
        for nid, _, _, _, scenario in self.spans:
            if nid == name_id:
                out[scenario] = out.get(scenario, 0) + 1
        return out

    def check_coverage(self, has_baseline: bool):
        """Raise unless every wrapped function fired at least once; the
        ``baseline.*`` ones only on workloads with a baseline."""
        summary = self.summary()
        silent = [
            name
            for name in [*self.names, *self.counts]
            if (has_baseline or not name.startswith("baseline."))
            and summary[name]["calls"] == 0
        ]
        if silent:
            raise TraceCoverageError(
                "expected spans never fired: " + ", ".join(silent)
                + "; the traced layer was renamed, moved or bypassed, update "
                "benchmarks/tracing.py"
            )

    def to_jsonable(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "scenario"],
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counts": self.counts,
        }
