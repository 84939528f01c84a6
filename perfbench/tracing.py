"""Span recorder for the traced, in-process run of a workload.

Every public function of the five library modules (and Graph construction)
is replaced, in every module namespace that holds it, by a wrapper that
times the call.  Each call pushes a frame; on return its duration is added
to the caller's frame, so self time = duration - time of wrapped callees.
Calls to the hot functions below are only aggregated per function; all other
calls are also kept as spans (name, start, end, parent, job) in memory and
written out when the run ends.  Counts that follow from a return value
(steps, edge visits, terms) are taken from that value.
"""

from __future__ import annotations

import inspect
import math
import time
from typing import Any, Callable

import oracles

LIBRARY_MODULES = ("graphs", "diffusion", "polyomino", "bijection", "counting")

# Called 10^5 times or more in one job: aggregated, never one span per call.
HOT = {
    "diffusion.fire",
    "diffusion.fire_complete",
    "diffusion.normalize",
    "diffusion.is_period_config",
    "bijection.check_fire_reflect",
    "bijection.poly_to_config",
    "polyomino.reflect",
    "polyomino.layout",
    "counting.multinomial",
}


class Stat:
    """Per-function totals: calls, inclusive time, self time, items yielded."""

    __slots__ = ("calls", "incl", "own", "yields")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.own = 0.0
        self.yields = 0


class Frame:
    __slots__ = ("key", "layer", "child", "span")

    def __init__(self, key: str, layer: str, span: int | None):
        self.key = key
        self.layer = layer
        self.child = 0.0
        self.span = span


def _digits(value: int) -> int:
    with oracles.unlimited_int_digits():
        return len(str(abs(value)))


# Counters derived from a call's arguments and return value.
def _on_graph(tr, args, result):
    tr.count("graphs.edges_built", len(args[0].edges))


def _on_fire(tr, args, result):
    tr.count("diffusion.edge_visits", len(args[0].edges))


def _on_fire_complete(tr, args, result):
    tr.count("diffusion.fire_complete_values", len(result))


def _on_detect_period(tr, args, result):
    steps = result.preperiod + result.period
    tr.count("diffusion.steps", steps)
    tr.peak("diffusion.configs_held_peak", steps + 1)


def _on_run(tr, args, result):
    tr.count("diffusion.run_steps", len(result) - 1)


def _on_check_fire_reflect(tr, args, result):
    if result is not True:
        tr.count("bijection.failures", 1)


def _on_labelled(tr, args, result):
    tr.count("counting.labelled_terms", 2 ** (args[0] - 1))
    tr.count("counting.output_digits", _digits(result))


def _on_recurrence(tr, args, result):
    tr.count("counting.recurrence_terms", len(result))
    tr.count("counting.output_digits", _digits(result[-1]))


def _on_gf(tr, args, result):
    tr.count("counting.gf_terms", len(result))
    tr.count("counting.output_digits", _digits(result[-1]))


def _on_brute_multisets(tr, args, result):
    n = args[0]
    tr.count("counting.brute_scanned", math.comb(3 * n - 1, n - 1))
    tr.count("counting.brute_hits", len(result))


def _on_brute_labelled(tr, args, result):
    n = args[0]
    tr.count("counting.brute_labelled_vectors", (2 * n + 1) ** n)
    tr.count("counting.brute_labelled_useful", (2 * n + 1) ** n - (2 * n) ** n)


HOOKS: dict[str, Callable] = {
    "graphs.Graph": _on_graph,
    "diffusion.fire": _on_fire,
    "diffusion.fire_complete": _on_fire_complete,
    "diffusion.detect_period": _on_detect_period,
    "diffusion.run": _on_run,
    "bijection.check_fire_reflect": _on_check_fire_reflect,
    "counting.labelled_period_count": _on_labelled,
    "counting.recurrence_counts": _on_recurrence,
    "counting.gf_coefficients": _on_gf,
    "counting.brute_force_period_multisets": _on_brute_multisets,
    "counting.brute_force_labelled": _on_brute_labelled,
}

ERROR_COUNTERS = {"NoRepeatWithinBudget": "diffusion.budget_failures"}


class Tracer:
    """Installs the wrappers; collects frames, spans and counters."""

    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.layer_time: dict[str, float] = {}  # outermost-frame time per layer
        self.spans: list[tuple] = []
        self.job = ""
        self.stack = [Frame("", "", None)]
        self._patches: list[tuple[Any, str, Any]] = []
        self._active: dict[str, int] = {}

    # --- counters -------------------------------------------------------------

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def reset(self) -> None:
        self.stats.clear()
        self.counters.clear()
        self.layer_time.clear()

    # --- frames ---------------------------------------------------------------

    def _enter(self, key: str, layer: str) -> tuple[Frame, float]:
        parent = self.stack[-1]
        span = len(self.spans) if key not in HOT else parent.span
        if key not in HOT:
            self.spans.append(None)  # reserve the id; filled in on exit
        frame = Frame(key, layer, span)
        self.stack.append(frame)
        return frame, self.clock()

    def _exit(self, frame: Frame, start: float) -> None:
        end = self.clock()
        self.stack.pop()
        parent = self.stack[-1]
        duration = end - start
        parent.child += duration
        stat = self.stats.get(frame.key)
        if stat is None:
            stat = self.stats[frame.key] = Stat()
        stat.calls += 1
        stat.incl += duration
        stat.own += duration - frame.child
        if parent.layer != frame.layer:
            self.layer_time[frame.layer] = self.layer_time.get(frame.layer, 0.0) + duration
        if frame.key not in HOT:
            self.spans[frame.span] = (frame.key, start, end, parent.span, self.job)

    def call(self, key: str, layer: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a frame; used for the root call too."""
        frame, start = self._enter(key, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._exit(frame, start)
            counter = ERROR_COUNTERS.get(type(exc).__name__)
            if counter:
                self.count(counter, 1)
            raise
        self._exit(frame, start)
        hook = HOOKS.get(key)
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrap_function(self, key: str, layer: str, fn: Callable) -> Callable:
        call = self.call

        def traced(*args, **kwargs):
            return call(key, layer, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, key: str, layer: str, fn: Callable) -> Callable:
        # Frames cover each resumption of the generator, so its self time
        # excludes whatever the consumer does between items.  A recursive
        # call made while the generator runs is left unwrapped: its time is
        # already inside the outer frame.
        active = self._active
        active[key] = 0
        enter, exit_ = self._enter, self._exit

        def resume(inner):
            while True:
                frame, start = enter(key, layer)
                active[key] += 1
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    active[key] -= 1
                    exit_(frame, start)
                self.stats[key].yields += 1
                yield item

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return inner if active[key] else resume(inner)

        traced.__wrapped__ = fn
        return traced

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = {name: getattr(self.package, name) for name in LIBRARY_MODULES}
        namespaces = [self.package, self.package.cli, *modules.values()]
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{name}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(key, layer, fn)
                else:
                    wrapper = self._wrap_function(key, layer, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        graph_cls = modules["graphs"].Graph
        init = graph_cls.__init__
        self._patches.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap_function("graphs.Graph", "graphs", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- results ----------------------------------------------------------------

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4]}
            for i, s in enumerate(self.spans)
            if s is not None
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a job list.

    `_s` metrics include the time of callees unless marked self; the cli
    counters (bytes, errors, import time) are filled in by the runner.
    """
    st, c = tr.stat, tr.counters.get
    fire_s = st("diffusion.fire").incl
    enumerate_s = st("polyomino.enumerate_board_pile").own
    scanned = c("counting.brute_scanned", 0)
    vectors = c("counting.brute_labelled_vectors", 0)
    return {
        "cli.self_s": st("cli.main").own,
        "graphs.build_s": tr.layer_time.get("graphs", 0.0),
        "graphs.build_calls": st("graphs.Graph").calls,
        "graphs.edges_built": c("graphs.edges_built", 0),
        "diffusion.fire_s": fire_s,
        "diffusion.fire_calls": st("diffusion.fire").calls,
        "diffusion.edge_visits": c("diffusion.edge_visits", 0),
        "diffusion.edge_visits_per_s": _ratio(c("diffusion.edge_visits", 0), fire_s),
        "diffusion.detect_period_s": st("diffusion.detect_period").own,
        "diffusion.steps": c("diffusion.steps", 0),
        "diffusion.configs_held_peak": c("diffusion.configs_held_peak", 0),
        "diffusion.budget_failures": c("diffusion.budget_failures", 0),
        "diffusion.run_s": st("diffusion.run").own,
        "diffusion.run_steps": c("diffusion.run_steps", 0),
        "diffusion.fire_complete_s": st("diffusion.fire_complete").incl,
        "diffusion.fire_complete_calls": st("diffusion.fire_complete").calls,
        "diffusion.fire_complete_values": c("diffusion.fire_complete_values", 0),
        "polyomino.enumerate_s": enumerate_s,
        "polyomino.yielded": st("polyomino.enumerate_board_pile").yields,
        "polyomino.yielded_per_s": _ratio(st("polyomino.enumerate_board_pile").yields, enumerate_s),
        "polyomino.reflect_s": st("polyomino.reflect").incl,
        "polyomino.reflect_calls": st("polyomino.reflect").calls,
        "polyomino.compositions_s": st("polyomino.compositions").incl,
        "polyomino.compositions_yielded": st("polyomino.compositions").yields,
        "bijection.check_fire_reflect_s": st("bijection.check_fire_reflect").own,
        "bijection.checked": st("bijection.check_fire_reflect").calls,
        "bijection.poly_to_config_s": st("bijection.poly_to_config").incl,
        "bijection.poly_to_config_calls": st("bijection.poly_to_config").calls,
        "bijection.failures": c("bijection.failures", 0),
        "counting.labelled_s": st("counting.labelled_period_count").incl,
        "counting.labelled_terms": c("counting.labelled_terms", 0),
        "counting.recurrence_s": st("counting.recurrence_counts").incl,
        "counting.recurrence_terms": c("counting.recurrence_terms", 0),
        "counting.gf_s": st("counting.gf_coefficients").incl,
        "counting.gf_terms": c("counting.gf_terms", 0),
        "counting.output_digits": c("counting.output_digits", 0),
        "counting.brute_unlabelled_s": st("counting.brute_force_period_multisets").own
        + st("counting.brute_force_unlabelled").own,
        "counting.brute_scanned": scanned,
        "counting.brute_hit_ratio": _ratio(c("counting.brute_hits", 0), scanned),
        "counting.brute_labelled_s": st("counting.brute_force_labelled").own,
        "counting.brute_labelled_vectors": vectors,
        "counting.brute_labelled_useful_ratio": _ratio(
            c("counting.brute_labelled_useful", 0), vectors
        ),
    }
