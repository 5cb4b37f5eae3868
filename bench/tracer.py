"""Outside-in tracing of signvote's public functions.

Each traced function is replaced, in every signvote module namespace that
holds it, by a wrapper that records a span: name, start, end and the span
that was open when it was called.  The modules look these names up at call
time, so calls from one module into another are caught without editing the
package.  Spans live in flat arrays while the benchmark runs and are written
out once at the end.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("core", "models", "optimizers", "adversaries", "simulation", "theory", "cli")

# public functions timed per module; names not listed here (as_vector,
# effective_eta, ...) are cheap helpers whose time stays with their caller
TRACED = {
    "core": ("as_signs", "sign", "sum_signs", "sequential_sum"),
    "models": ("sample_batch", "full_batch", "grad", "loss", "accuracy"),
    "optimizers": ("worker_message", "server_aggregate_signs", "server_aggregate_sgd",
                   "apply_update"),
    "adversaries": ("blind_invert", "byz_collude_signs", "byz_inverse_sum",
                    "byz_oppose_true_sign"),
    "simulation": ("load_data", "run_experiment"),
    "theory": ("mc_sign_error", "vote_failure_exact", "estimate_sign_match_profile",
               "estimate_sigma", "bound_report"),
    "cli": ("main",),
}

# both aggregation rules are one layer: the server reading the messages
SPAN_NAMES = {
    "optimizers.server_aggregate_signs": "optimizers.server_aggregate",
    "optimizers.server_aggregate_sgd": "optimizers.server_aggregate",
}


class Tracer:
    """Span recorder; :meth:`installed` swaps the wrappers in and back out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.runs: list[tuple[int, int]] = []  # [first, last) span index per run
        self.messages: list[int] = []  # messages the server aggregated, per run
        self.message_bytes: list[int] = []
        self._stack = [-1]
        self._full_batches: dict[int, object] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        is_grad = qualname == "models.grad"
        is_aggregate = qualname in SPAN_NAMES
        is_full_batch = qualname == "models.full_batch"
        if is_grad:
            # a full-batch gradient is evaluation, a sampled one is worker work
            full_id = self._name_id("models.grad.full")
            worker_id = self._name_id("models.grad.worker")
        else:
            name_id = self._name_id(SPAN_NAMES.get(qualname, qualname))

        def traced(*args, **kwargs):
            if is_grad:
                batch = args[3] if len(args) > 3 else kwargs["batch"]
                span_id = full_id if id(batch) in self._full_batches else worker_id
            else:
                span_id = name_id
            if is_aggregate:
                messages = args[0] if args else kwargs["messages"]
                self.messages[-1] += len(messages)
                self.message_bytes[-1] += sum(np.asarray(m).nbytes for m in messages)
            i = self._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if is_full_batch:
                self._full_batches[id(result)] = result
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all signvote namespaces."""
        namespaces = [importlib.import_module("signvote")]
        namespaces += [importlib.import_module(f"signvote.{m}") for m in MODULES]
        swapped = []
        for owner in MODULES:
            module = importlib.import_module(f"signvote.{owner}")
            for attr in TRACED[owner]:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{owner}.{attr}", original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            swapped.append((namespace, key, original))
                            setattr(namespace, key, wrapper)
        try:
            yield self
        finally:
            for namespace, key, original in swapped:
                setattr(namespace, key, original)

    @contextmanager
    def run(self):
        """Group the spans recorded inside the block as one run."""
        first = len(self.name)
        self.messages.append(0)
        self.message_bytes.append(0)
        self._full_batches.clear()
        try:
            yield
        finally:
            self._full_batches.clear()
            self.runs.append((first, len(self.name)))

    def run_summary(self, k: int) -> dict:
        """Per-name call counts and self times of run ``k``, plus round intervals.

        A span's self time is its duration minus the durations of its direct
        children; the spans of one run nest, so their self times add up to the
        outermost span's duration.
        """
        first, last = self.runs[k]
        name = np.frombuffer(self.name, dtype=np.int32)[first:last]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:last]
        duration = (np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last])
        children = np.zeros(last - first)
        nested = parent >= first
        np.add.at(children, parent[nested] - first, duration[nested])
        self_time = np.bincount(name, weights=duration - children, minlength=len(self.names))
        counts = np.bincount(name, minlength=len(self.names))
        update_id = self._name_ids.get("optimizers.apply_update", -1)
        update_ends = np.frombuffer(self.end)[first:last][name == update_id]
        return {
            "calls": {n: int(counts[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_time[i]) for i, n in enumerate(self.names)},
            "round_s": np.diff(update_ends),
            "messages": self.messages[k],
            "message_bytes": self.message_bytes[k],
        }

    def write(self, path) -> None:
        """Write every span as CSV: run, span, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run,span,parent,name,start_s,end_s\n")
            for k, (first, last) in enumerate(self.runs):
                for i in range(first, last):
                    handle.write(f"{k},{i},{self.parent[i]},{self.names[self.name[i]]},"
                                 f"{self.start[i]!r},{self.end[i]!r}\n")
