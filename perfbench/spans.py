"""Layer-boundary tracing, installed from outside the program.

Each boundary is a function name looked up in the namespace of the module
that calls it across a layer boundary (``sweeps.simulate_counts`` is how the
sweep drivers reach the bench layer). The tracer replaces that name with a
wrapper recording one span: an id, the parent span's id, a name, start and
end. Spans stay in memory; ``Tracer.end_op`` folds one op's spans into
per-name calls, total time and self time (duration minus the time of the
span's children), and ``Tracer.save`` writes them all at the end of a run.

A name that no longer exists in the program is skipped and listed in
``Tracer.absent``, so the metrics built on it are reported as absent.
"""

from __future__ import annotations

import threading
import time
from itertools import count
from pathlib import Path

import numpy as np

# (calling module, name in its namespace, span name)
BOUNDARIES = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "verify", "sweeps.verify"),
    ("cli", "state_sweep", "sweeps.state_sweep"),
    ("cli", "grid_sweep", "sweeps.grid_sweep"),
    ("cli", "cross_section", "sweeps.cross_section"),
    ("cli", "reversal_fidelity_sweep", "sweeps.reversal_fidelity_sweep"),
    ("sweeps", "state_sweep", "sweeps.state_sweep"),
    ("sweeps", "grid_sweep", "sweeps.grid_sweep"),
    ("sweeps", "cross_section", "sweeps.cross_section"),
    ("sweeps", "haar_average_oracle", "sweeps.haar_average_oracle"),
    ("sweeps", "simulate_counts", "bench.simulate_counts"),
    ("sweeps", "simulate_tomography", "bench.simulate_tomography"),
    ("sweeps", "estimate_gmax_from_counts", "bench.estimate"),
    ("sweeps", "estimate_prev_from_counts", "bench.estimate"),
    ("sweeps", "gain_term_from_counts", "bench.estimate"),
    ("sweeps", "rev_term_from_counts", "bench.estimate"),
    ("sweeps", "per_state_gain", "measurement.per_state_gain"),
    ("sweeps", "per_state_reversal_prob", "measurement.per_state_reversal_prob"),
    ("sweeps", "apply_operator", "qubit.apply_operator"),
    ("measurement", "apply_operator", "qubit.apply_operator"),
) + tuple(
    ("tables", name, "tables." + name)
    for name in (
        "grid_csv", "states_csv", "cross_section_csv", "fidelities_csv", "verify_csv",
        "grid_json_rows", "states_json_rows", "cross_section_json_rows",
        "fidelities_json_rows", "verify_json_rows", "json_document",
    )
)
# Random substreams are built by the bench layer for itself and by the sweep
# drivers; the wrapper hands out a generator that counts binomial variates.
SUBSTREAM_BOUNDARIES = (("bench", "_substream"), ("sweeps", "_substream"))
SUBSTREAM_SPAN = "bench.substream"
# verify's check runners look these names up when they run; the span takes
# the name of the check the result reports.
CHECK_PREFIX = "_check_"
CHECK_SPAN = "sweeps.check."
OP_SPAN = "op"


class _CountingGenerator(np.random.Generator):
    """A Generator on the same bit stream that counts binomial variates."""

    def __init__(self, bit_generator, tracer: "Tracer") -> None:
        super().__init__(bit_generator)
        self._tracer = tracer

    def binomial(self, n, p, size=None):
        out = super().binomial(n, p, size)
        self._tracer.add("bench.binomial_draws", int(np.size(out)))
        return out


def _covered_by_children(table: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Time each span adds to the union of its siblings' intervals.

    Summed per parent this is the part of the parent's interval its children
    cover. Children on one thread never overlap, so this is their duration;
    children on pool threads overlap each other and are counted once.
    """
    start = table[:, 3] - table[:, 3].min()
    end = table[:, 4] - table[:, 3].min()
    # Order by (parent, start) and shift each parent's group above the last,
    # so one running maximum of end times restarts at every group.
    order = np.lexsort((start, parent))
    group = np.cumsum(np.r_[0, np.diff(parent[order]) != 0])
    shift = group * (float(end.max()) + 1.0)
    s, e = start[order] + shift, end[order] + shift
    reached = np.r_[-1.0, np.maximum.accumulate(e)[:-1]]
    covered = np.empty_like(start)
    covered[order] = np.maximum(0.0, e - np.maximum(s, reached))
    return covered


class Tracer:
    def __init__(self, modules: dict) -> None:
        self._modules = modules  # short layer name -> imported module
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._spans: list[tuple] = []
        self._counters: dict[str, int] = {}
        self._saved: list[np.ndarray] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._installed: set[str] = set()
        self.origin = time.perf_counter()

    # --- recording -------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    def add(self, counter: str, n: int) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def _wrap(self, fn, name: str, on_result=None):
        """Span around ``fn``; ``on_result(result)`` may rename it or count output."""
        fixed = self._index(name)
        local, ids, clock, tracer = self._local, self._ids, time.perf_counter, self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # A pool thread's outermost span belongs to the span the main
            # thread is blocked in.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1
            )
            sid = next(ids)
            stack.append(sid)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                name_idx = fixed
                if returned and on_result is not None:
                    name_idx = on_result(result, fixed)
                tracer._spans.append((sid, parent, name_idx, t0, t1))

        return traced

    # --- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, value, source: str) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        self._installed.add(source)

    def provides(self, source: str) -> bool:
        """Whether a span name or counter group had a boundary to wrap."""
        return source in self._installed

    def install(self) -> None:
        """Replace every boundary name by its traced wrapper."""
        self.absent = []
        self._installed = set()
        for module_key, attr, name in BOUNDARIES:
            module = self._modules[module_key]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_key}.{attr}")
                continue
            on_result = self._count_text if module_key == "tables" else None
            self._patch(module, attr, self._wrap(fn, name, on_result), name)
            if module_key == "tables":
                self._installed.add("tables")

        for module_key, attr in SUBSTREAM_BOUNDARIES:
            module = self._modules[module_key]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_key}.{attr}")
                continue
            wrapper = self._wrap(self._counting_substream(fn), SUBSTREAM_SPAN)
            self._patch(module, attr, wrapper, SUBSTREAM_SPAN)

        sweeps = self._modules["sweeps"]
        for attr, fn in list(vars(sweeps).items()):
            if attr.startswith(CHECK_PREFIX) and callable(fn):
                fallback = CHECK_SPAN + attr[len(CHECK_PREFIX):]
                wrapper = self._wrap(fn, fallback, self._check_name)
                self._patch(sweeps, attr, wrapper, CHECK_SPAN.rstrip("."))

        operator = getattr(self._modules["qubit"], "Operator2", None)
        physical = vars(operator).get("is_physical_kraus") if operator else None
        if isinstance(physical, property):
            def counted(op, _fget=physical.fget):
                self.add("qubit.svd", 1)
                return _fget(op)

            counting = property(counted, doc=physical.__doc__)
            self._patch(operator, "is_physical_kraus", counting, "qubit.svd")
        else:
            self.absent.append("qubit.Operator2.is_physical_kraus")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counting_substream(self, fn):
        def substream(*args, **kwargs):
            return _CountingGenerator(fn(*args, **kwargs).bit_generator, self)

        return substream

    def _count_text(self, result, name_idx: int) -> int:
        if isinstance(result, str):
            self.add("tables.bytes_out", len(result.encode("utf-8")))
        return name_idx

    def _check_name(self, result, name_idx: int) -> int:
        name = getattr(result, "name", None)
        return self._index(CHECK_SPAN + name) if isinstance(name, str) else name_idx

    # --- per op ----------------------------------------------------------

    def begin_op(self) -> None:
        self._spans = []
        self._counters = {}
        self._local.stack = self._main_stack = [next(self._ids)]
        self._op_start = time.perf_counter()

    def end_op(self) -> dict[str, float]:
        """Close the op's root span; return per-op totals keyed by metric name."""
        root = self._main_stack.pop()
        self._spans.append((root, -1, self._index(OP_SPAN), self._op_start, time.perf_counter()))
        table = np.array(self._spans, dtype=np.float64)
        self._spans = []
        self._saved.append(table)

        sid = table[:, 0].astype(np.int64)
        parent = table[:, 1].astype(np.int64)
        name = table[:, 2].astype(np.int64)
        duration = table[:, 4] - table[:, 3]
        base = int(sid.min())
        covered = _covered_by_children(table, parent)
        child_time = np.bincount(
            parent[parent >= 0] - base,
            weights=covered[parent >= 0],
            minlength=int(sid.max()) - base + 1,
        )
        self_time = duration - child_time[sid - base]

        width = len(self._names)
        calls = np.bincount(name, minlength=width)
        selfs = np.bincount(name, weights=self_time, minlength=width)
        totals = np.bincount(name, weights=duration, minlength=width)
        out: dict[str, float] = {"trace.spans": float(len(table))}
        for i, span_name in enumerate(self._names):
            out[f"{span_name}.calls"] = float(calls[i])
            out[f"{span_name}.self_s"] = float(selfs[i])
            out[f"{span_name}.total_s"] = float(totals[i])
        for counter, value in self._counters.items():
            out[counter] = float(value)
        return out

    def save(self, path: Path) -> None:
        """Write every recorded span: id, parent, name index, start, end (s from origin)."""
        table = np.concatenate(self._saved) if self._saved else np.zeros((0, 5))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            id=table[:, 0].astype(np.int64),
            parent=table[:, 1].astype(np.int64),
            name=table[:, 2].astype(np.int32),
            start=table[:, 3] - self.origin,
            end=table[:, 4] - self.origin,
            names=np.array(self._names),
        )
