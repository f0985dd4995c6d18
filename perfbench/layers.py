"""Per-layer self times for the traced run, measured from outside.

:class:`LayerClock` replaces public entry points of the program's
modules (:data:`TARGETS`) with timing wrappers.  A wrapped call records
its duration minus the duration of the wrapped calls nested in it, so a
layer's total is its *self* time: the layers never double-count, and
their sum plus the unattributed remainder is the traced wall time.  The
wrappers live only in the traced run's process and :meth:`restore`
removes them.

The clock's own bookkeeping (counting plan and block sizes) is excluded
from every layer, so it lands in the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: layer -> entry points, as ``(module, attribute)``.  ``"*"`` wraps every
#: public function the module defines and ``"Class.*"`` every public
#: method of the class.  ``plan.pack`` wraps the block planner, whose self
#: time (everything but the draw) is the slot decode and index packing.
TARGETS = {
    "sim": [
        ("repro.sim.montecarlo", "sample_f_values"),
        ("repro.sim.montecarlo", "sample_t_eps"),
        ("repro.sim.montecarlo", "sample_meeting_times"),
    ],
    "core": [
        ("repro.core.base", "AveragingProcess.run"),
        ("repro.core.base", "AveragingProcess.step"),
        ("repro.core.base", "AveragingProcess.run_until_phi"),
    ],
    "theory": [
        ("repro.theory.exact", "*"),
        ("repro.theory.absorbing", "*"),
        ("repro.dual.qchain", "*"),
        ("repro.dual.qchain", "QChain.*"),
    ],
    "dual": [
        ("repro.engine.dual", "BatchDiffusion.run"),
        ("repro.engine.dual", "BatchWalks.run"),
        ("repro.engine.dual", "BatchCoalescing.run"),
        ("repro.engine.dual", "BatchCoalescing.run_to_coalescence"),
        ("repro.engine.dual", "sample_coalescence_times"),
        ("repro.engine.dual", "run_duality_batch"),
    ],
    "graphs": [
        ("repro.graphs.generators", "*"),
        ("repro.graphs.adjacency", "Adjacency.from_graph"),
    ],
    "harvest": [("repro.engine.driver", "run_to_consensus_batch")],
    "detect": [("repro.engine.batch", "BatchAveragingProcess.run_until_phi")],
    "resync": [("repro.engine.batch", "BatchAveragingProcess.resync_moments")],
    "plan.draw": [
        ("repro.engine.selection", "draw_node_block"),
        ("repro.engine.selection", "draw_edge_block"),
    ],
    "plan.pack": [
        ("repro.engine.batch", "BatchNodeModel._plan_block"),
        ("repro.engine.batch", "BatchEdgeModel._plan_block"),
    ],
}

#: Per-layer metric -> the layer whose self time it reports.
SELF_TIME_METRICS = {
    "sim.facade_self_s": "sim",
    "core.scalar_s": "core",
    "theory.exact_s": "theory",
    "dual.run_s": "dual",
    "graphs.build_s": "graphs",
    "driver.harvest_s": "harvest",
    "plan.draw_s": "plan.draw",
    "plan.pack_s": "plan.pack",
    "detect_s": "detect",
    "resync_s": "resync",
    "execute_s": "execute",
}

#: Per-layer metric -> the layer whose wrapped calls it counts.
CALL_METRICS = {
    "sim.calls": "sim",
    "core.scalar_calls": "core",
    "plan.draw_calls": "plan.draw",
    "resync.count": "resync",
    "execute.blocks": "execute",
}


class LayerClock:
    """Self time and call count per layer, plus work counts of the blocks."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for layer, targets in TARGETS.items():
            for module_name, attribute in targets:
                self._wrap(layer, module_name, attribute)
        kernels = importlib.import_module("repro.engine.kernels")
        factory = kernels.make_block_executor

        @functools.wraps(factory)
        def make_block_executor(kernel):
            executor = factory(kernel)
            return None if executor is None else _TimedExecutor(self, executor)

        self._replace_everywhere(factory, make_block_executor)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, layer: str, module_name: str, attribute: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            self.missing.append(f"{module_name}.{attribute}")
            return
        if name == "*":
            names = [
                key for key, value in vars(owner).items()
                if not key.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module_name
            ]
        else:
            names = [name]
        hook = self._count_plan if layer == "plan.pack" else None
        for key in names:
            raw = vars(owner).get(key)
            if raw is None:
                self.missing.append(f"{module_name}.{owner_name}.{key}")
            elif owner is module:
                self._replace_everywhere(raw, self.timed(layer, raw, hook))
            elif isinstance(raw, classmethod):
                self._set(owner, key, classmethod(self.timed(layer, raw.__func__, hook)))
            else:
                self._set(owner, key, self.timed(layer, raw, hook))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``repro`` module global that names ``original``.

        Modules import functions by name, so patching the defining
        module alone would miss the copies the callers hold.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def timed(self, layer: str, fn, hook=None):
        """``fn`` wrapped so that its self time counts towards ``layer``.

        ``hook(args, result)`` runs after the call; its time is excluded
        from this layer and from the enclosing one.
        """
        open_calls = self._open
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_calls.pop()
                self_s[layer] += elapsed - children[0]
                calls[layer] += 1
            if hook is not None:
                hook(args, result)
            if open_calls:
                open_calls[-1][0] += clock() - start
            return result

        return wrapper

    def _count_plan(self, args, plan) -> None:
        """Replica-rounds drawn (full batch) and used (active rows)."""
        batch, rounds = args[0], args[1]
        self.counts["plan.drawn_replica_rounds"] += rounds * batch.replicas
        self.counts["plan.active_replica_rounds"] += rounds * batch.num_active

    def _count_block(self, args, result) -> None:
        """Computed bytes one block moves: indices read, values gathered
        (k neighbours and the old value), values scattered, and the
        recorded old/new blocks.  Cache misses are not modelled."""
        plan, record = args[1], args[3]
        rounds, active = plan.write_idx.shape
        if plan.cat_idx is not None:
            index = plan.cat_idx.nbytes
        else:
            index = plan.write_idx.nbytes + plan.gather_idx.nbytes
            if plan.keep is not None:
                index += plan.keep.nbytes
        cells = rounds * active
        values = 8 * cells * (plan.k + 2 + (2 if record else 0))
        self.counts["execute.computed_bytes"] += index + values
        self.counts["execute.replica_steps"] += cells

    def metrics(self, wall_s: float) -> dict:
        """The per-layer metrics of a traced region lasting ``wall_s``."""
        out = {name: self.self_s[layer] for name, layer in SELF_TIME_METRICS.items()}
        out.update({name: self.calls[layer] for name, layer in CALL_METRICS.items()})
        steps = self.counts["execute.replica_steps"]
        computed = self.counts["execute.computed_bytes"]
        drawn = self.counts["plan.drawn_replica_rounds"]
        out["execute.computed_bytes"] = computed
        out["execute.bytes_per_replica_step"] = computed / steps if steps else 0.0
        out["engine.useful_ratio"] = (
            self.counts["plan.active_replica_rounds"] / drawn if drawn else 0.0
        )
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        return out


class _TimedExecutor:
    """A block executor whose calls count as the execute layer."""

    def __init__(self, clock: LayerClock, executor) -> None:
        self._executor = executor
        self._call = clock.timed("execute", executor, clock._count_block)

    def __call__(self, *args):
        return self._call(*args)

    def __getattr__(self, name):
        return getattr(self._executor, name)
