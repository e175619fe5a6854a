"""Smoothed, decomposable decision circuits and their counting sweeps.

A :class:`Circuit` is a dec-DNNF-style arithmetic/Boolean circuit over integer
variables ``0 .. n - 1`` with four node kinds:

* ``FALSE`` / ``TRUE`` — constants (empty scope),
* ``FREE``     — a *smoothing gadget*: the conjunction ``⋀_{v∈vars} (v ∨ ¬v)``
  over a set of unconstrained variables, satisfied by every assignment of its
  scope.  Materialising the gadget as one node (instead of a tree of trivial
  decisions) keeps circuits small while making smoothness *structural*,
* ``AND``      — a **decomposable** conjunction: children have pairwise
  disjoint scopes whose union is the node's scope,
* ``DECISION`` — a Shannon decision ``(v ∧ hi) ∨ (¬v ∧ lo)``: the one (always
  deterministic) disjunction allowed in the circuit.  **Smoothness** requires
  ``scope(hi) == scope(lo) == scope(node) - {v}``.

Because every node carries its scope, both defining invariants are checkable
(:meth:`Circuit.check_decomposable`, :meth:`Circuit.check_smooth`) and every
derived quantity reads off the circuit in time polynomial in its size:

* :meth:`Circuit.count_vectors` — one **bottom-up sweep** computes, per node,
  the size-stratified model-count vector (``vec[k]`` = satisfying subsets of
  the node's scope of size ``k``, i.e. the coefficients of the generating
  polynomial in a formal size variable ``z``),
* :meth:`Circuit.conditioned_pairs` — one **top-down derivative sweep**
  computes, for *every* variable ``v`` at once, the count vector of the
  circuit conditioned on ``v := true`` (the ``v := false`` vector follows from
  the partition identity ``root[k] = true[k-1] + false[k]``).  This is
  Darwiche's differential trick: the root polynomial is multilinear in the
  per-variable indicator pair ``(x_v, x̄_v)`` (by decomposability no product
  joins two subcircuits sharing ``v``), so ``∂root/∂x_v`` — accumulated while
  propagating one context polynomial per node — *is* the conditioned count.
  One sweep replaces ``n`` independent conditionings.

The circuit is a DAG (the compiler caches sub-formulas), stored as parallel
lists indexed by node id; children are always created before their parents, so
ascending id order is topological and descending order is reverse-topological.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..counting.dnf_counter import add_vectors, binomial_row, convolve, pad

#: Node kinds (values of ``Circuit.kind``).
FALSE, TRUE, FREE, AND, DECISION = range(5)

_KIND_NAMES = ("FALSE", "TRUE", "FREE", "AND", "DECISION")


class CircuitInvariantError(AssertionError):
    """Raised by the invariant checkers when a circuit is malformed."""


def _shift(vector: Sequence[int]) -> list[int]:
    """Multiply a count polynomial by ``z`` (the chosen variable adds 1 to the size)."""
    return [0, *vector]


class Circuit:
    """A smooth, decomposable decision circuit (see the module docstring).

    Nodes are appended through the ``add_*`` methods (used by the compiler);
    ``root`` must be assigned before the sweeps run.  ``kind[i]`` is the node
    kind, ``var[i]`` the decision variable (``-1`` elsewhere), ``children[i]``
    the child ids (``(hi, lo)`` for decisions), and ``scope[i]`` the frozenset
    of variables the node ranges over.
    """

    __slots__ = ("kind", "var", "children", "scope", "root", "_false", "_true", "_free")

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.var: list[int] = []
        self.children: list[tuple[int, ...]] = []
        self.scope: list[frozenset[int]] = []
        self.root: int = -1
        self._false: "int | None" = None
        self._true: "int | None" = None
        self._free: dict[frozenset[int], int] = {}

    def __len__(self) -> int:
        return len(self.kind)

    # -- construction -----------------------------------------------------------
    def _add(self, kind: int, var: int, children: tuple[int, ...],
             scope: frozenset[int]) -> int:
        self.kind.append(kind)
        self.var.append(var)
        self.children.append(children)
        self.scope.append(scope)
        return len(self.kind) - 1

    def add_false(self) -> int:
        """The (unique) FALSE constant node."""
        if self._false is None:
            self._false = self._add(FALSE, -1, (), frozenset())
        return self._false

    def add_true(self) -> int:
        """The (unique) TRUE constant node."""
        if self._true is None:
            self._true = self._add(TRUE, -1, (), frozenset())
        return self._true

    def add_free(self, variables: Iterable[int]) -> int:
        """A smoothing gadget over ``variables`` (deduplicated by variable set)."""
        key = frozenset(variables)
        if not key:
            return self.add_true()
        node = self._free.get(key)
        if node is None:
            node = self._free[key] = self._add(FREE, -1, (), key)
        return node

    def add_and(self, child_ids: Sequence[int]) -> int:
        """A decomposable conjunction (a single child is returned unwrapped)."""
        if len(child_ids) == 1:
            return child_ids[0]
        scope: frozenset[int] = frozenset()
        for child in child_ids:
            scope |= self.scope[child]
        return self._add(AND, -1, tuple(child_ids), scope)

    def add_decision(self, variable: int, hi: int, lo: int) -> int:
        """A Shannon decision on ``variable`` (children must already be smooth)."""
        scope = self.scope[hi] | self.scope[lo] | {variable}
        return self._add(DECISION, variable, (hi, lo), scope)

    # -- invariants --------------------------------------------------------------
    def check_decomposable(self) -> bool:
        """Every AND node's children have pairwise disjoint scopes covering the node scope."""
        for i, kind in enumerate(self.kind):
            if kind != AND:
                continue
            union: set[int] = set()
            for child in self.children[i]:
                child_scope = self.scope[child]
                if union & child_scope:
                    raise CircuitInvariantError(
                        f"AND node {i}: children scopes overlap on {union & child_scope}")
                union |= child_scope
            if union != self.scope[i]:
                raise CircuitInvariantError(
                    f"AND node {i}: children cover {union}, scope is {set(self.scope[i])}")
        return True

    def check_smooth(self) -> bool:
        """Every decision's branches range over exactly ``scope - {var}`` (and leaf scopes match)."""
        for i, kind in enumerate(self.kind):
            if kind == DECISION:
                v = self.var[i]
                expected = self.scope[i] - {v}
                hi, lo = self.children[i]
                if v not in self.scope[i]:
                    raise CircuitInvariantError(f"decision node {i}: {v} not in its scope")
                for name, child in (("hi", hi), ("lo", lo)):
                    if self.scope[child] != expected:
                        raise CircuitInvariantError(
                            f"decision node {i} ({name} branch): child scope "
                            f"{set(self.scope[child])} != scope - {{x{v}}} = {set(expected)}")
            elif kind in (FALSE, TRUE) and self.scope[i]:
                raise CircuitInvariantError(f"constant node {i} has non-empty scope")
        return True

    def check_invariants(self) -> bool:
        """Both defining invariants (raises :class:`CircuitInvariantError` on violation)."""
        return self.check_decomposable() and self.check_smooth()

    # -- bottom-up sweep ---------------------------------------------------------
    def count_vectors(self) -> list[list[int]]:
        """Per-node size-stratified model counts, in one bottom-up sweep.

        ``result[i][k]`` counts the size-``k`` subsets of ``scope[i]`` whose
        characteristic assignment satisfies node ``i``; ascending id order is
        topological, so each node combines already-computed child vectors.
        """
        vectors: list[list[int]] = []
        for i, kind in enumerate(self.kind):
            if kind == FALSE:
                vectors.append([0])
            elif kind == TRUE:
                vectors.append([1])
            elif kind == FREE:
                vectors.append(binomial_row(len(self.scope[i])))
            elif kind == AND:
                vector = [1]
                for child in self.children[i]:
                    vector = convolve(vector, vectors[child])
                vectors.append(vector)
            else:  # DECISION: z * hi + lo
                hi, lo = self.children[i]
                vectors.append(add_vectors(_shift(vectors[hi]), vectors[lo]))
        return vectors

    def root_count(self) -> list[int]:
        """The root's count vector (length ``|scope(root)| + 1``)."""
        if self.root < 0:
            raise ValueError("circuit has no root")
        return self.count_vectors()[self.root]

    def probability(self, probabilities: Mapping[int, Fraction]) -> Fraction:
        """Satisfaction probability under independent variables, in one sweep.

        The weighted generalisation of :meth:`count_vectors`: instead of the
        generating polynomial in a formal size variable, each node evaluates
        to the probability that a random assignment — variable ``v`` true
        independently with probability ``probabilities[v]`` — satisfies it.
        Smoothness and decomposability make this sound: FREE gadgets evaluate
        to ``Π (p + (1-p)) = 1``, decomposable ANDs multiply independent
        events, and decisions mix ``p·hi + (1-p)·lo`` over disjoint branches.
        Every variable of the root scope must be priced; exact ``Fraction``
        arithmetic throughout.
        """
        if self.root < 0:
            raise ValueError("circuit has no root")
        missing = [v for v in self.scope[self.root] if v not in probabilities]
        if missing:
            raise ValueError(
                f"no probability given for variables {sorted(missing)}")
        weights = {v: Fraction(probabilities[v]) for v in self.scope[self.root]}
        values: list[Fraction] = []
        for i, kind in enumerate(self.kind):
            if kind == FALSE:
                values.append(Fraction(0))
            elif kind in (TRUE, FREE):
                values.append(Fraction(1))
            elif kind == AND:
                value = Fraction(1)
                for child in self.children[i]:
                    value *= values[child]
                values.append(value)
            else:  # DECISION: p * hi + (1 - p) * lo
                hi, lo = self.children[i]
                p = weights[self.var[i]]
                values.append(p * values[hi] + (1 - p) * values[lo])
        return values[self.root]

    # -- top-down derivative sweep -----------------------------------------------
    def conditioned_pairs(self, variables: "Iterable[int] | None" = None, *,
                          root: "int | None" = None,
                          vectors: "list[list[int]] | None" = None,
                          ) -> dict[int, list[int]]:
        """``{v: true_vector}`` for every requested variable, in one sweep.

        ``true_vector[k]`` counts size-``k`` subsets of ``scope(root) - {v}``
        satisfying the circuit with ``v`` fixed true.  The false branch is not
        accumulated: every caller recovers it from the root vector by the
        partition identity (:func:`~repro.counting.dnf_counter.recombine`).
        ``variables`` restricts the accumulation (default: the whole root
        scope) — the context propagation is shared either way, so a worker
        computing one stripe of variables still pays the sweep only once.

        The context ``ctx[i]`` is the polynomial ``∂P_root / ∂P_i``: it starts
        as ``[1]`` at the root and flows down edges (multiplied by ``z`` into
        decision hi-branches, by the co-children's product through ANDs).  A
        variable collects contributions wherever it is *mentioned* — at its
        decision nodes (``ctx ⊛ hi vector``) and inside FREE gadgets
        (``ctx ⊛ C(m-1, ·)``, the gadget with one variable removed); smoothness
        guarantees the total is the full conditioned count.

        ``root`` sweeps the subcircuit rooted at that node instead of the
        circuit root — the factor-local view used to amortise what-if batches
        over the root conjunction's factors.  ``vectors`` accepts a
        precomputed :meth:`count_vectors` list so several factor sweeps share
        one bottom-up pass.
        """
        start = self.root if root is None else root
        if start < 0:
            raise ValueError("circuit has no root")
        wanted = self.scope[start] if variables is None else (
            frozenset(variables) & self.scope[start])
        if vectors is None:
            vectors = self.count_vectors()
        n_nodes = len(self.kind)
        ctx: list["list[int] | None"] = [None] * n_nodes
        ctx[start] = [1]
        true_vectors: dict[int, list[int]] = {v: [0] for v in wanted}

        for i in range(start, -1, -1):
            c = ctx[i]
            if c is None:
                continue
            kind = self.kind[i]
            if kind == DECISION:
                hi, lo = self.children[i]
                shifted = _shift(c)
                ctx[hi] = shifted if ctx[hi] is None else add_vectors(ctx[hi], shifted)
                ctx[lo] = list(c) if ctx[lo] is None else add_vectors(ctx[lo], c)
                v = self.var[i]
                if v in wanted:
                    true_vectors[v] = add_vectors(true_vectors[v],
                                                  convolve(c, vectors[hi]))
            elif kind == AND:
                children = self.children[i]
                # ctx of child j is c times the product of the other children's
                # vectors; prefix/suffix products make this linear in the arity.
                prefix: list[list[int]] = [[1]]
                for child in children[:-1]:
                    prefix.append(convolve(prefix[-1], vectors[child]))
                suffix: list[int] = [1]
                for j in range(len(children) - 1, -1, -1):
                    child = children[j]
                    others = convolve(prefix[j], suffix)
                    contribution = convolve(c, others)
                    ctx[child] = contribution if ctx[child] is None else add_vectors(
                        ctx[child], contribution)
                    suffix = convolve(suffix, vectors[child])
            elif kind == FREE:
                mentioned = self.scope[i] & wanted
                if mentioned:
                    # ∂/∂x_v of Π_u (x_u + x̄_u) is the same (1+z)^(m-1) for
                    # every u: one convolution serves all.
                    contribution = convolve(c, binomial_row(len(self.scope[i]) - 1))
                    for v in mentioned:
                        true_vectors[v] = add_vectors(true_vectors[v], contribution)
            # constants: nothing to propagate.

        length = len(self.scope[start])  # |scope| - 1 variables + 1 entries
        return {v: pad(vector, length) for v, vector in true_vectors.items()}

    # -- restriction --------------------------------------------------------------
    def restrict(self, assignment: Mapping[int, bool], *,
                 root: "int | None" = None) -> "Circuit":
        """The circuit with every assigned variable fixed, over the *remaining* scope.

        A fixed variable leaves the player set entirely: its decision nodes
        collapse to the chosen branch **without** the ``z``-shift (the variable
        no longer contributes to subset sizes), and FREE gadgets drop it from
        their scope (both polarities of an unconstrained variable contribute
        the same ``(1+z)^(m-1)`` factor, so removal is exact for either fixed
        value).  Every surviving node's scope is its old scope minus the
        assigned variables, so smoothness and decomposability are preserved
        over the reduced variable set — the restricted circuit is a standing
        artefact in its own right, answering count, probability and
        conditioned-pair sweeps for the hypothetical world.  Variable ids keep
        their **original** numbering, so an enclosing lineage's fact-to-index
        map still addresses the remaining variables.  ``root`` restricts the
        subcircuit rooted at that node instead (the returned circuit's root is
        its image) — the per-factor restriction of the what-if batch.
        """
        start = self.root if root is None else root
        if start < 0:
            raise ValueError("circuit has no root")
        fixed = {int(v): bool(b) for v, b in assignment.items()}
        n_nodes = len(self.kind)
        # Top-down reachability in the *restricted* circuit: a collapsed
        # decision only needs its chosen branch, so the other subtree is
        # never rebuilt (descending id order is reverse-topological).
        needed = [False] * n_nodes
        needed[start] = True
        for i in range(start, -1, -1):
            if not needed[i]:
                continue
            kind = self.kind[i]
            if kind == DECISION and self.var[i] in fixed:
                hi, lo = self.children[i]
                needed[hi if fixed[self.var[i]] else lo] = True
            else:
                for child in self.children[i]:
                    needed[child] = True
        out = Circuit()
        mapping: dict[int, int] = {}
        for i in range(n_nodes):
            if not needed[i]:
                continue
            kind = self.kind[i]
            if kind == FALSE:
                node = out.add_false()
            elif kind == TRUE:
                node = out.add_true()
            elif kind == FREE:
                node = out.add_free(self.scope[i] - fixed.keys())
            elif kind == AND:
                children = tuple(
                    mapped for mapped in (mapping[c] for c in self.children[i])
                    if out.kind[mapped] != TRUE)
                node = out.add_and(children) if children else out.add_true()
            else:  # DECISION
                v = self.var[i]
                hi, lo = self.children[i]
                if v in fixed:
                    node = mapping[hi if fixed[v] else lo]
                else:
                    node = out.add_decision(v, mapping[hi], mapping[lo])
            mapping[i] = node
        out.root = mapping[start]
        return out

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Node counts by kind plus the total (reported by benchmarks and sessions)."""
        out = {name.lower(): 0 for name in _KIND_NAMES}
        for kind in self.kind:
            out[_KIND_NAMES[kind].lower()] += 1
        out["total"] = len(self.kind)
        return out


__all__ = [
    "AND",
    "Circuit",
    "CircuitInvariantError",
    "DECISION",
    "FALSE",
    "FREE",
    "TRUE",
]
