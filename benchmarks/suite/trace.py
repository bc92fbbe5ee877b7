"""Observation-only span tracing, installed from outside the program.

The tracer never edits ``src/``: it shadows public methods on the
*instances* a workload built (an instance attribute hides the class
method for that one object), records ``(name, start, end, parent,
round)`` spans in memory, and is removed again after the traced pass.
A layer's self time is its span's duration minus the part its child
spans cover; :func:`self_times` does that arithmetic and is what the
harness tests check.

Objects that cross the process boundary are never wrapped: a wrapped
``model.gradient`` makes the sharded backend's model broadcast raise
``PicklingError``, so under ``ShardedBackend`` the model and the client
datasets stay untouched and the ``WorkerPool`` methods are timed instead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT_SPAN = "fl.engine.round"

#: every layer span the suite reports, in report order
SPAN_NAMES = (
    "fl.backends.local_steps", "fl.backends.reset_residuals",
    "nn.gradient", "nn.evaluate", "sparsify.client_select",
    "sparsify.preprocess_uploads", "sparsify.server_select",
    "fl.server.aggregate", "fl.robust.aggregate",
    "fl.async_engine.discount", "online.policy", "scenarios.sample",
    "scenarios.hooks", "parallel.compute_gradients",
    "parallel.broadcast_model", "data.minibatch",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the tracer's list, None for a root
    parent: int | None
    #: 0 is the warm-up round, timed rounds count from 1
    round: int


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the direct children's durations."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def reconcile(spans: list[Span]) -> float:
    """Relative gap between the summed self times and the summed root
    spans; also raises if a non-root span has no parent."""
    orphans = [s.name for s in spans if s.parent is None and s.name != ROOT_SPAN]
    if orphans:
        raise AssertionError(f"spans recorded outside a round: {sorted(set(orphans))}")
    root_total = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    if root_total <= 0:
        raise AssertionError("no root span recorded")
    return abs(sum(self_times(spans)) - root_total) / root_total


def layer_summary(spans: list[Span], rounds: int) -> dict[str, dict[str, float]]:
    """``{span name: {self_ms_per_round, calls_per_round}}`` over the
    timed rounds (the warm-up round, ``round == 0``, is left out)."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        if span.round > 0:
            total[span.name] += own
            calls[span.name] += 1
    return {
        name: {
            "self_ms_per_round": 1e3 * total[name] / rounds,
            "calls_per_round": calls[name] / rounds,
        }
        for name in (ROOT_SPAN, *SPAN_NAMES)
    }


class Tracer:
    """Records spans around wrapped instance methods."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        #: bytes of gradients the worker pool handed back, timed rounds only
        self.ipc_bytes_back = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str]] = []

    # ------------------------------------------------------------------
    def wrap(self, obj, name: str, *attrs: str, on_result=None) -> None:
        """Shadow each ``obj.attr`` with a wrapper recording a ``name`` span."""
        for attr in attrs:
            setattr(obj, attr, self._traced(getattr(obj, attr), name, on_result))
            self._installed.append((obj, attr))

    def _traced(self, original, name: str, on_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # A layer calling itself (loss_at -> loss_value) stays one span.
            if stack and spans[stack[-1]].name == name:
                return original(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.round)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self, built) -> None:
        """Wrap every layer boundary of one built workload."""
        trainer = built.trainer
        engine = trainer.engine
        self.wrap(trainer, ROOT_SPAN, "step")
        self.wrap(engine.backend, "fl.backends.local_steps", "local_steps")
        self.wrap(engine.backend, "fl.backends.reset_residuals",
                  "reset_residuals")
        self.wrap(engine.sparsifier, "sparsify.client_select",
                  "client_select", "client_select_batched")
        self.wrap(engine.sparsifier, "sparsify.preprocess_uploads",
                  "preprocess_uploads")
        self.wrap(engine.sparsifier, "sparsify.server_select", "server_select")
        self.wrap(engine.server, "fl.server.aggregate", "aggregate")
        if engine.server.aggregator is not None:
            self.wrap(engine.server.aggregator, "fl.robust.aggregate",
                      "aggregate")
        if engine.sampler is not None:
            self.wrap(engine.sampler, "scenarios.sample", "sample")
        if built.scenario is not None:
            self.wrap(built.scenario.hooks, "scenarios.hooks",
                      "after_local_steps", "after_aggregate", "after_update",
                      "round_timing", "extra_round_time", "observe")
        if hasattr(trainer, "policy"):
            self.wrap(trainer.policy, "online.policy",
                      "propose", "probe_k", "observe")
        if hasattr(engine, "discount"):
            self.wrap(engine.discount, "fl.async_engine.discount",
                      "factor", "probe_exponent", "observe")
        if built.pool is not None:
            self.wrap(built.pool, "parallel.compute_gradients",
                      "compute_gradients", on_result=self._count_ipc)
            self.wrap(built.pool, "parallel.broadcast_model",
                      "broadcast_model")
        else:
            self.wrap(engine.model, "nn.gradient",
                      "gradient", "gradients_batched")
            self.wrap(engine.model, "nn.evaluate", "loss_value", "loss_at",
                      "per_sample_losses", "per_sample_losses_at", "accuracy")
            for client in engine.clients:
                self.wrap(client.dataset, "data.minibatch", "minibatch")

    def _count_ipc(self, results) -> None:
        if self.round > 0:
            self.ipc_bytes_back += sum(grad.nbytes for grad, _ in results)

    def remove(self) -> None:
        """Delete every installed wrapper, restoring the class methods."""
        for obj, attr in self._installed:
            delattr(obj, attr)
        self._installed.clear()

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "round"],
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.round]
                        for s in self.spans
                    ],
                },
                fh,
            )
