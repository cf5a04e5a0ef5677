"""In-memory spans around the program's layers, recorded from outside the program.

A wrap point is a module attribute that a layer calls through at run time:
``inpg.dynamics.run`` looks up ``marginal_sweep`` in its module globals on
every step, so replacing ``inpg.dynamics.marginal_sweep`` routes every call
through a timing wrapper while the program's files stay untouched. Only names
that are looked up at call time can be wrapped this way; a name bound inside a
function body (a closure or a local alias) cannot, and is timed as part of its
caller's self time.

A wrap point that the program no longer has (a later refactor renamed or
inlined it) is listed in ``Tracer.missing`` and its metrics are left out; it
is not an error.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name). Several attributes may share a span name.
WRAP_POINTS = (
    ("inpg.dynamics", "marginal_sweep", "sweep"),
    ("inpg.dynamics", "npg_update_logs", "update"),
    ("inpg.dynamics", "pg_direct_update_probs", "update"),
    ("inpg.dynamics", "ne_gap_terms", "gaps"),
    ("inpg.dynamics", "qre_gap_terms", "gaps"),
    ("inpg.dynamics", "row_entropies", "entropy"),
    ("inpg.dynamics", "jeffrey_logs", "jeffrey"),
    ("inpg.harness", "run", "run"),
    ("inpg.harness", "make_identical_interest", "game.build"),
    ("inpg.harness", "make_general_potential", "game.build"),
    ("inpg.harness", "load_game", "game.load"),
    ("inpg.harness", "write_run_csv", "io.csv_write"),
    ("inpg.harness", "write_run_meta", "io.meta_write"),
    ("inpg.harness", "policy_to_csv", "io.policy_write"),
    ("inpg.harness", "read_csv_columns", "csv_read"),
    ("inpg.harness", "aggregate_csvs", "agg"),
    ("inpg.harness", "plot_directory", "plot"),
    ("inpg.harness", "audit_directory", "audit"),
    ("inpg.svg", "line_chart", "svg.chart"),
    # The benchmark's own set-up calls the game layer through these.
    ("inpg.game", "make_identical_interest", "game.build"),
    ("inpg.game", "make_general_potential", "game.build"),
    ("inpg.game", "save_game", "game.save"),
    ("inpg.game", "load_game", "game.load"),
)


def _result_size(name: str, out) -> int:
    """Work count recorded with a span: rows read, or characters of SVG rendered."""
    if name == "csv_read":
        return len(next(iter(out.values()))) if out else 0
    if name == "svg.chart":
        return len(out)
    return 0


class Tracer:
    """Records one span per wrapped call: [name, parent index, start, end, size].

    Calls are single-threaded (the traced run uses one worker), so a stack of
    open spans gives each span its parent.
    """

    def __init__(self, wrap_points=WRAP_POINTS):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrap_points = wrap_points

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            span[4] = _result_size(name, out)
            return out

        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in self._wrap_points:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def durations(spans, name: str) -> list[float]:
    return [s[3] - s[2] for s in spans if s[0] == name]


def self_times(spans, name: str) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    return [s[3] - s[2] - child[k] for k, s in enumerate(spans) if s[0] == name]


def sizes_under(spans, name: str, parent_name: str) -> list[int]:
    """Sizes of `name` spans whose direct parent is a `parent_name` span."""
    return [s[4] for s in spans if s[0] == name and s[1] >= 0 and spans[s[1]][0] == parent_name]


def start_intervals(spans, name: str) -> list[float]:
    """Gaps between successive starts of `name` spans that share a parent span."""
    last: dict[int, float] = {}
    out = []
    for s in spans:
        if s[0] != name:
            continue
        prev = last.get(s[1])
        if prev is not None:
            out.append(s[2] - prev)
        last[s[1]] = s[2]
    return out
