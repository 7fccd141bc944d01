"""The outside-in layer ledger: spans around each layer's public entry points.

The program itself is not modified.  :class:`Ledger` replaces every entry
point listed in :data:`LAYERS` with a timing wrapper at each of its
binding sites — the defining module, every module that imported the name,
or the class for a method — and puts the originals back on exit.

Spans are kept in memory.  Each records its layer, entry point, start,
duration, parent span and the op it belongs to.  A layer's *self time* is
its span time minus the time its child spans cover, so self times of
nested layers add up to the wall time of the outermost span.  The first
:data:`MAX_EVENTS` spans can be written out as a Chrome-trace document.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, module, attribute)``: each public entry point the ledger
#: wraps.  A dotted attribute is a method, wrapped on its class.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("runtime.plan", "repro.runtime.transfers", "TransferPlan.__init__"),
    ("runtime.plan", "repro.runtime.transfers", "PlanCache.plan"),
    ("runtime.dispatch", "repro.runtime.schedule", "CompiledSchedule.execute"),
    ("runtime.schedule", "repro.runtime.schedule", "compile_schedule"),
    ("runtime.batch", "repro.runtime.batch", "simulate_many"),
    ("runtime.batch", "repro.runtime.batch", "BatchEvaluator.evaluate"),
    ("runtime.simulate", "repro.runtime.executor", "simulate"),
    ("runtime.reference", "repro.runtime.reference", "reference_run"),
    ("frontend.parse", "repro.frontend.parser", "parse"),
    ("frontend.analyze", "repro.frontend.semantic", "analyze"),
    ("ir.lower", "repro.ir.build", "lower"),
    ("comm.optimize", "repro.comm.optimizer", "optimize"),
    ("comm.optimize", "repro.comm.optimizer", "optimize_with_report"),
    ("programs.generate", "repro.programs.generate", "generate_program"),
    ("programs.generate", "repro.programs.generate", "generate_source"),
    ("engine.cache.get", "repro.engine.cache", "DirCache.get"),
    ("engine.cache.get", "repro.engine.cache", "NullCache.get"),
    ("engine.cache.put", "repro.engine.cache", "DirCache.put"),
    ("engine.cache.put", "repro.engine.cache", "NullCache.put"),
    ("engine", "repro.engine.core", "run_study"),
    ("engine", "repro.engine.core", "ExperimentEngine.run"),
    ("engine", "repro.engine.worker", "execute_job"),
    ("engine", "repro.engine.worker", "compile_cached"),
    ("engine", "repro.engine.batch", "run_jobs_batched"),
    ("sweep", "repro.sweep.core", "run_sweep"),
    ("sweep", "repro.sweep.refine", "run_refined_sweep"),
    ("machine.pack", "repro.machine.variants", "pack_variant_specs"),
    ("machine.pack", "repro.machine.variants", "pack_variants"),
    ("analysis", "repro.analysis.figures", "figure8_counts"),
    ("analysis", "repro.analysis.figures", "figure10a_times"),
    ("analysis", "repro.analysis.figures", "figure10b_times"),
    ("analysis", "repro.analysis.figures", "figure11_heuristic_counts"),
    ("analysis", "repro.analysis.figures", "figure12_heuristic_times"),
    ("analysis", "repro.analysis.figures", "table_full"),
    ("analysis", "repro.analysis.report", "format_table"),
    ("analysis", "repro.analysis.scaling", "speedup_curve"),
    ("analysis", "repro.analysis.scaling", "find_crossings"),
    ("analysis", "repro.analysis.scaling", "detect_crossovers"),
)

#: ``ratio -> (outer entry, inner entry)``: the share of outer calls
#: that did *not* reach the inner entry, i.e. were served from a cache.
NESTED_HITS: Dict[str, Tuple[str, str]] = {
    "runtime.plan.hit_ratio": ("PlanCache.plan", "TransferPlan.__init__"),
    "engine.compile.hit_ratio": ("compile_cached", "parse"),
}

#: Spans kept for the Chrome-trace document; the totals count them all.
MAX_EVENTS = 50_000


class Ledger:
    """Wraps the entry points of ``table`` and accounts their time.

    Use as a context manager (or :meth:`install` / :meth:`uninstall`);
    set :attr:`op` to tag the spans of one op.  ``clock`` is the time
    source in seconds.
    """

    def __init__(
        self,
        table: Sequence[Tuple[str, str, str]] = LAYERS,
        *,
        nested_hits: Optional[Dict[str, Tuple[str, str]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.table = tuple(table)
        self.nested_hits = NESTED_HITS if nested_hits is None else nested_hits
        self.clock = clock
        self.op: object = None
        self.self_s: Dict[str, float] = {layer: 0.0 for layer, _, _ in self.table}
        self.calls: Counter = Counter()
        self.entry_calls: Counter = Counter()
        self.nested: Counter = Counter()
        self.events: List[tuple] = []
        self._stack: List[list] = []
        self._active = {attr: 0 for _, _, attr in self.table}
        self._next_id = 0
        self._inner = {inner: outer for outer, inner in self.nested_hits.values()}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # spans
    def _wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        """``fn`` inside a span; the bookkeeping is inlined because it
        runs on every call of every entry point."""
        ledger, clock = self, self.clock
        stack, events, self_s = self._stack, self.events, self.self_s
        calls, entry_calls, active = self.calls, self.entry_calls, self._active
        outer = self._inner.get(entry)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outer is not None and active[outer]:
                ledger.nested[outer, entry] += 1
            if not stack or stack[-1][0] != layer:
                calls[layer] += 1
            entry_calls[entry] += 1
            active[entry] += 1
            ledger._next_id += 1
            # [layer, span id, parent id, child time, start]
            frame = [layer, ledger._next_id, stack[-1][1] if stack else 0, 0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[4]
                stack.pop()
                self_s[layer] += duration - frame[3]
                active[entry] -= 1
                if stack:
                    stack[-1][3] += duration
                if len(events) < MAX_EVENTS:
                    events.append(
                        (layer, entry, frame[1], frame[2], frame[4], duration, ledger.op)
                    )

        return wrapper

    # ------------------------------------------------------------------
    # binding sites
    def install(self) -> "Ledger":
        """Replace every entry point at each of its binding sites."""
        if self._patches:
            raise RuntimeError("ledger is already installed")
        for layer, module_name, attr in self.table:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, name)
                self._patch(cls, name, original, self._wrap(layer, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, attr, original)
            for site in self._sites():
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, original, wrapper)
        return self

    def _sites(self):
        """Every loaded module of the packages the table names."""
        packages = {module.split(".")[0] for _, module, _ in self.table}
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] in packages:
                yield module

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original, wrapper, name in vars(owner)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Put every original back where it was."""
        originals = {}
        for owner, name, original, wrapper, own in reversed(self._patches):
            originals[id(wrapper)] = original
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []
        # a module imported while the ledger was installed bound a wrapper
        for site in self._sites():
            for key, value in list(vars(site).items()):
                if id(value) in originals:
                    setattr(site, key, originals[id(value)])

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    def ratios(self) -> Dict[str, float]:
        """Every hit ratio; 0.0 for an entry point that was never called."""
        out = {}
        for name, (outer, inner) in self.nested_hits.items():
            calls = self.entry_calls[outer]
            out[name] = 1.0 - self.nested[outer, inner] / calls if calls else 0.0
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_chrome_trace(self, path: Path) -> Path:
        """The kept spans as a Chrome trace-event document (Perfetto)."""
        events = [
            {
                "name": entry,
                "cat": layer,
                "ph": "X",
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "op": str(op)},
            }
            for layer, entry, span_id, parent, start, duration, op in self.events
        ]
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path
