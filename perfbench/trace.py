"""In-memory spans around the calls into each layer, and their self times.

The tracer lives entirely in the benchmark: it times the calls the replay
makes into the library's public layer functions, and leaves ``src/`` alone.
Two shims reach calls that a layer makes on objects the replay owns:

* :meth:`Tracer.trace_circuit` re-classes one ``Circuit`` instance, so its
  bottom-up ``count_vectors`` and top-down ``conditioned_pairs`` sweeps
  record spans even when ``CompiledDNF`` or ``ConditioningPlan`` call them;
* :class:`TracingStore` is a ``MemoryStore`` whose gets and puts record
  spans and trace the circuits passing through, so a circuit compiled inside
  ``patch_attribution`` is traced when it is swept.

A span is ``[name, op, parent, start, end]``; spans are kept in memory and
written once, at the end of the traced run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

from repro.compile.circuit import Circuit
from repro.compile.compiler import CompiledDNF, CompiledLineage
from repro.workspace.store import MemoryStore

#: The name of the span each replayed op runs under.
ROOT = "op"


class Tracer:
    """Records spans of one traced run, grouped by op id."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []
        self.op: int = -1
        #: ``{op: {counter: total}}`` — work counts recorded beside the spans.
        self.counts: "dict[int, dict[str, int]]" = defaultdict(lambda: defaultdict(int))
        tracer = self

        class TracedCircuit(Circuit):
            __slots__ = ()

            def count_vectors(self):
                with tracer.span("compile.count_sweep"):
                    return super().count_vectors()

            def conditioned_pairs(self, variables=None, *, root=None, vectors=None):
                with tracer.span("compile.derivative_sweep"):
                    return super().conditioned_pairs(variables, root=root,
                                                     vectors=vectors)

        self._circuit_class = TracedCircuit

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.op, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` of the current op."""
        self.counts[self.op][name] += amount

    def trace_circuit(self, circuit: Circuit) -> Circuit:
        """Make ``circuit``'s sweeps record spans (the instance is re-classed)."""
        if type(circuit) is Circuit:
            circuit.__class__ = self._circuit_class
        return circuit

    def trace_artifact(self, artifact):
        """Trace the circuit inside a compiled store artifact, if any."""
        if isinstance(artifact, CompiledLineage):
            self.trace_circuit(artifact.compiled.circuit)
        elif isinstance(artifact, CompiledDNF):
            self.trace_circuit(artifact.circuit)
        return artifact

    # -- read-out ---------------------------------------------------------------
    def self_times(self) -> "dict[int, dict[str, float]]":
        """``{op: {span name: summed self time}}`` over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: "dict[int, dict[str, float]]" = defaultdict(lambda: defaultdict(float))
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            out[op][name] += (end - start) - child_time[i]
        return out

    def op_walls(self) -> "dict[int, float]":
        """Duration of each op's root span."""
        return {op: end - start for name, op, parent, start, end in self.spans
                if name == ROOT}

    def write(self, path: str) -> None:
        """Write every span once, as JSON lines ``[name, op, parent, start, end]``."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


class TracedIndex:
    """A value index whose ``combine`` records a ``values.combine`` span."""

    def __init__(self, index, tracer: Tracer):
        self._index = index
        self._tracer = tracer
        self.name = index.name

    def combine(self, with_vector, without_vector, n: int) -> Fraction:
        with self._tracer.span("values.combine"):
            return self._index.combine(with_vector, without_vector, n)


class TracingStore(MemoryStore):
    """A replica ``MemoryStore``: spans on get/put, circuits traced in transit."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def get(self, key):
        with self._tracer.span("workspace.store"):
            return self._tracer.trace_artifact(super().get(key))

    def put(self, key, artifact) -> None:
        with self._tracer.span("workspace.store"):
            super().put(key, self._tracer.trace_artifact(artifact))
