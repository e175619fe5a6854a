"""Knowledge compilation of monotone lineage DNFs into decision circuits.

The paper reduces SVC to size-stratified model counting of the query lineage;
the counting literature's standard weapon for that job is *knowledge
compilation*: compile the formula once into a decomposable circuit, then read
every derived quantity off the circuit in time polynomial in its size.  This
module is that compiler, specialised to the monotone DNFs produced by
:func:`repro.counting.lineage.build_lineage`.

The compiled :class:`~repro.compile.circuit.Circuit` represents the
**complement** ``¬F`` of the monotone DNF ``F`` — an anti-monotone CNF whose
clauses mirror ``F``'s clause sets.  The complement is what makes the circuit
genuinely decomposable: variable-disjoint groups of DNF clauses are a
*disjunction* of independent components (never deterministic), but their
complement is a **conjunction** — a decomposable AND — which is exactly the
trick the recursive counter (:func:`repro.counting.dnf_counter._count_vector`)
plays with its complement product.  All counts of ``F`` are recovered from the
complement by subtracting from binomial rows (see :class:`CompiledDNF`), in
the same exact integer arithmetic, so results are bitwise-identical to the
counter's.

Shannon expansion drives the compilation, with the three classic #SAT
ingredients:

* **component caching** — variable-disjoint clause groups compile
  independently and combine under a decomposable AND,
* **formula caching** — sub-formulas are memoised by clause set, so the
  circuit is a DAG and repeated sub-problems cost one node,
* a **pluggable variable-ordering heuristic** — ``max-occurrence`` by default
  (branch on a most frequent variable, the same choice as the recursive
  counter: it disconnects the formula fastest and keeps the cache hot), with
  ``min-occurrence`` and ``first`` available for ablations, or any callable
  ``(clauses) -> variable``.  The default was chosen empirically:
  min-occurrence branches barely simplify the formula, and on a 17-clause
  sparse bipartite lineage it compiles to 34 117 nodes where max-occurrence
  needs 229 (and blows the node budget outright one size up).

Compilation is budgeted: once the circuit exceeds ``node_budget`` nodes a
:class:`CircuitBudgetError` is raised and the caller (the engine's auto
dispatch) falls back to per-fact lineage conditioning — compilation can be
worst-case exponential, and the budget is what makes preferring the circuit
backend safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..counting.dnf_counter import (
    MonotoneDNF,
    _minimize_clauses,
    _split_components,
    recombine,
)
from ..errors import ReproError
from ..reliability import faults
from .circuit import AND, DECISION, FALSE, FREE, TRUE, Circuit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..counting.lineage import Lineage
    from ..data.atoms import Fact

#: Default ceiling on the number of circuit nodes a compilation may allocate.
#: Generous enough for every structured lineage in the test and benchmark
#: suites (which compile to well under 10^4 nodes) while bounding the
#: worst-case exponential blow-up to well under a second of compile time.
DEFAULT_NODE_BUDGET = 100_000

#: The default variable-ordering heuristic (see the module docstring for the
#: ablation that picked it).
DEFAULT_ORDERING = "max-occurrence"

#: A variable-ordering heuristic: clause sets in, branch variable out.
OrderingHeuristic = Callable[["frozenset[frozenset[int]]"], int]


class CircuitBudgetError(ReproError):
    """Raised when compilation would exceed the configured node budget.

    Carries the budget so callers can report why the circuit backend was
    skipped; the engine catches this error and falls back to per-fact lineage
    conditioning (the ``counting`` backend).
    """

    def __init__(self, budget: int):
        super().__init__(f"circuit compilation exceeded the node budget of {budget}")
        self.budget = budget


def _occurrences(clauses: "frozenset[frozenset[int]]") -> dict[int, int]:
    frequency: dict[int, int] = {}
    for clause in clauses:
        for variable in clause:
            frequency[variable] = frequency.get(variable, 0) + 1
    return frequency


def min_occurrence(clauses: "frozenset[frozenset[int]]") -> int:
    """Branch on a variable occurring in the fewest clauses (ties: smallest index)."""
    frequency = _occurrences(clauses)
    return min(sorted(frequency), key=lambda v: frequency[v])


def max_occurrence(clauses: "frozenset[frozenset[int]]") -> int:
    """Branch on a most frequent variable (the counter's heuristic; ties: smallest index)."""
    frequency = _occurrences(clauses)
    return max(sorted(frequency), key=lambda v: frequency[v])


def first_variable(clauses: "frozenset[frozenset[int]]") -> int:
    """Branch on the smallest variable index (a deterministic static order)."""
    return min(min(clause) for clause in clauses if clause)


ORDERINGS: Mapping[str, OrderingHeuristic] = {
    "min-occurrence": min_occurrence,
    "max-occurrence": max_occurrence,
    "first": first_variable,
}


def _resolve_ordering(ordering: "str | OrderingHeuristic") -> OrderingHeuristic:
    if callable(ordering):
        return ordering
    try:
        return ORDERINGS[ordering]
    except KeyError:
        raise ValueError(
            f"unknown ordering heuristic {ordering!r}; "
            f"pick one of {tuple(ORDERINGS)} or pass a callable") from None


class CompileSeed:
    """Warm-start material for recompiling a *changed* formula.

    Holds a previously compiled circuit together with its retained formula
    cache (``compile_dnf(..., retain_cache=True)``) and an **injective**
    variable renumbering from the old circuit's variable ids to the new
    formula's.  During the new compilation, any sub-formula whose renumbered
    clause set already has a node in the old circuit is *grafted* — copied
    node by node into the new circuit, renumbering variables on the way —
    instead of being re-expanded through Shannon branching.  Correctness is
    free: the graft is a verbatim subcircuit copy and every derived count is
    a pure function of circuit semantics, so seeded and unseeded compilations
    agree bitwise (they may differ in node layout, never in counts).
    """

    def __init__(self, compiled: "CompiledDNF",
                 renumber: "Mapping[int, int]"):
        if compiled.formula_cache is None:
            raise ValueError(
                "seeding needs a formula cache; compile the previous formula "
                "with retain_cache=True")
        if len(set(renumber.values())) != len(renumber):
            raise ValueError("variable renumbering must be injective")
        self.circuit = compiled.circuit
        self.renumber = dict(renumber)
        #: renumbered clause set -> node in the *old* circuit.  Cache entries
        #: mentioning variables outside the renumbering cannot recur in the
        #: new formula and are skipped.
        self.lookup: dict[frozenset[frozenset[int]], int] = {}
        for clauses, node in compiled.formula_cache.items():
            try:
                key = frozenset(frozenset(self.renumber[v] for v in clause)
                                for clause in clauses)
            except KeyError:
                continue
            self.lookup[key] = node


class _Compiler:
    """One compilation run: holds the circuit under construction and the caches."""

    def __init__(self, ordering: OrderingHeuristic, node_budget: int,
                 seed: "CompileSeed | None" = None):
        if node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {node_budget}")
        self.circuit = Circuit()
        self.ordering = ordering
        self.node_budget = node_budget
        #: formula cache: DNF clause set -> circuit node of its complement.
        self.cache: dict[frozenset[frozenset[int]], int] = {}
        self.seed = seed
        self._graft_memo: dict[int, int] = {}

    def _check_budget(self) -> None:
        if len(self.circuit) > self.node_budget:
            raise CircuitBudgetError(self.node_budget)

    def _smoothed(self, node: int, target: frozenset[int]) -> int:
        """Extend ``node`` to range over ``target`` by AND-ing a FREE gadget."""
        missing = target - self.circuit.scope[node]
        if not missing:
            return node
        wrapped = self.circuit.add_and((node, self.circuit.add_free(missing)))
        self._check_budget()
        return wrapped

    def compile(self, clauses: "frozenset[frozenset[int]]") -> int:
        """The circuit node of ``¬F`` where ``F`` is the DNF with these clauses.

        The node's scope is exactly the variables used by ``clauses``; callers
        needing a wider scope wrap the result with :meth:`_smoothed`.
        """
        cached = self.cache.get(clauses)
        if cached is not None:
            return cached
        if self.seed is not None:
            old = self.seed.lookup.get(clauses)
            if old is not None:
                node = self._graft(old)
                self.cache[clauses] = node
                return node
        if frozenset() in clauses:      # F trivially true  -> complement false
            node = self.circuit.add_false()
        elif not clauses:               # F trivially false -> complement true
            node = self.circuit.add_true()
        else:
            components = _split_components(clauses)
            if len(components) > 1:
                # ¬(C1 ∨ C2 ∨ ...) = ¬C1 ∧ ¬C2 ∧ ... and the components are
                # variable-disjoint: a decomposable AND, each factor cached
                # independently (component caching).
                node = self.circuit.add_and(
                    tuple(self.compile(frozenset(component))
                          for component in components))
            else:
                node = self._shannon(clauses)
        self._check_budget()
        self.cache[clauses] = node
        return node

    def _shannon(self, clauses: "frozenset[frozenset[int]]") -> int:
        """Branch on the heuristic's variable; smooth both branches to a shared scope."""
        variable = self.ordering(clauses)
        scope = frozenset().union(*clauses)
        branch_scope = scope - {variable}
        # v := true — drop v from every clause (a clause emptied out makes F
        # true); v := false — clauses containing v can no longer fire.
        true_clauses = frozenset(_minimize_clauses(
            {clause - {variable} for clause in clauses}))
        false_clauses = frozenset(clause for clause in clauses
                                  if variable not in clause)
        hi = self._smoothed(self.compile(true_clauses), branch_scope)
        lo = self._smoothed(self.compile(false_clauses), branch_scope)
        node = self.circuit.add_decision(variable, hi, lo)
        self._check_budget()
        return node

    def _graft(self, old_node: int) -> int:
        """Copy an old subcircuit into this one, renumbering variables.

        The old circuit's add order is topological and the formula cache only
        exposes nodes whose full scope lies inside the renumbering (a cached
        sub-formula's subcircuit never ranges outside the sub-formula's
        variables), so every recursive lookup resolves.  Node construction
        goes through the ordinary ``add_*`` builders, keeping deduplication
        and the node budget in force.
        """
        memo = self._graft_memo
        cached = memo.get(old_node)
        if cached is not None:
            return cached
        seed = self.seed
        assert seed is not None
        old = seed.circuit
        kind = old.kind[old_node]
        if kind == FALSE:
            node = self.circuit.add_false()
        elif kind == TRUE:
            node = self.circuit.add_true()
        elif kind == FREE:
            node = self.circuit.add_free(
                frozenset(seed.renumber[v] for v in old.scope[old_node]))
        elif kind == AND:
            node = self.circuit.add_and(
                tuple(self._graft(child) for child in old.children[old_node]))
        else:
            assert kind == DECISION
            hi, lo = old.children[old_node]
            node = self.circuit.add_decision(
                seed.renumber[old.var[old_node]], self._graft(hi), self._graft(lo))
        self._check_budget()
        memo[old_node] = node
        return node


@dataclass(frozen=True)
class CompiledDNF:
    """A monotone DNF compiled to a circuit, with the counting accessors.

    ``circuit`` represents the complement ``¬F`` over the DNF's *used*
    variables; the accessors add back the unconstrained variables (binomial
    convolutions) and flip the complement (subtraction from binomial rows), so
    every vector matches :meth:`MonotoneDNF.count_by_size` /
    :meth:`MonotoneDNF.conditioned_count_by_size` integer for integer.
    """

    n_variables: int
    circuit: Circuit
    #: Diagnostic only — which heuristic compiled this circuit.
    ordering: str = DEFAULT_ORDERING
    #: Retained formula cache (``compile_dnf(..., retain_cache=True)``):
    #: DNF clause set -> complement node, the raw material of a
    #: :class:`CompileSeed` for patching this circuit after a formula delta.
    formula_cache: "dict[frozenset[frozenset[int]], int] | None" = field(
        default=None, compare=False, repr=False)
    _root_vector: "list[int] | None" = field(default=None, compare=False)

    @property
    def size(self) -> int:
        """Number of circuit nodes (the quantity the node budget bounds)."""
        return len(self.circuit)

    def _complement_root(self) -> list[int]:
        if self._root_vector is None:
            # frozen dataclass: cache through __dict__ is unavailable with
            # field-based storage, so write via object.__setattr__ (same
            # pattern as cached_property on frozen dataclasses).
            object.__setattr__(self, "_root_vector", self.circuit.root_count())
        return self._root_vector

    def count_by_size(self) -> list[int]:
        """The FGMC vector of the DNF: ``vec[k]`` satisfying subsets of size ``k``."""
        used = len(self.circuit.scope[self.circuit.root])
        return recombine([self._complement_root()], [{}],
                         self.n_variables - used)[0]

    def conditioned_pairs(self, variables: "list[int] | None" = None,
                          ) -> dict[int, tuple[list[int], list[int]]]:
        """``{v: (true_vector, false_vector)}`` of the DNF, from one derivative sweep.

        Exactly :meth:`MonotoneDNF.conditioned_count_by_size` for every
        requested variable (default: all ``n``), but the circuit is swept once
        instead of re-counting per variable.  The root is one island of
        :func:`~repro.counting.dnf_counter.recombine`; variables outside its
        scope are the free ones.
        """
        wanted = range(self.n_variables) if variables is None else list(variables)
        root_scope = self.circuit.scope[self.circuit.root]
        inside = [v for v in wanted if v in root_scope]
        return recombine([self._complement_root()],
                         [self.circuit.conditioned_pairs(inside)],
                         self.n_variables - len(root_scope),
                         [v for v in wanted if v not in root_scope])[1]

    def restrict(self, assignment: "Mapping[int, bool]") -> "CompiledDNF":
        """The compiled DNF with every assigned variable fixed true/false.

        Restriction commutes with complementation, so fixing variables in the
        stored complement circuit (:meth:`Circuit.restrict`) yields exactly the
        compiled form of ``F`` restricted — **without recompiling**.  The fixed
        variables leave the player set (``n_variables`` shrinks accordingly)
        while the survivors keep their original ids, so the accessors above
        answer counts, conditioned pairs and probabilities for the restricted
        formula with the same binomial bookkeeping (pass the surviving ids to
        :meth:`conditioned_pairs` explicitly — its default range assumes dense
        numbering).  This is the what-if
        batch's workhorse: one standing compilation, one cheap restriction plus
        one derivative sweep per hypothetical world.
        """
        fixed = dict(assignment)
        out_of_range = [v for v in fixed if not 0 <= v < self.n_variables]
        if out_of_range:
            raise ValueError(
                f"assignment fixes unknown variables {sorted(out_of_range)}")
        return CompiledDNF(n_variables=self.n_variables - len(fixed),
                           circuit=self.circuit.restrict(fixed),
                           ordering=self.ordering)

    def probability(self, probabilities: Mapping[int, Fraction]) -> Fraction:
        """``Pr(F)`` under independent variables, from one weighted circuit sweep.

        ``probabilities[v]`` is the probability that variable ``v`` is true;
        variables outside the circuit's scope are unconstrained (they
        contribute a factor 1 regardless of their probability, so entries for
        them are accepted and ignored).  The circuit represents ``¬F``, so
        ``Pr(F) = 1 - sweep(¬F)`` — exactly
        :meth:`MonotoneDNF.probability`, but evaluated on the compiled
        artefact instead of re-recursing per evaluation.
        """
        root_scope = self.circuit.scope[self.circuit.root]
        return 1 - self.circuit.probability(
            {v: Fraction(probabilities[v]) for v in root_scope
             if v in probabilities})


def compile_dnf(dnf: MonotoneDNF, *, ordering: "str | OrderingHeuristic" = DEFAULT_ORDERING,
                node_budget: int = DEFAULT_NODE_BUDGET,
                retain_cache: bool = False,
                seed: "CompileSeed | None" = None) -> CompiledDNF:
    """Compile a monotone DNF into a smooth, decomposable decision circuit.

    ``retain_cache=True`` keeps the run's formula cache on the result, making
    it seedable; ``seed`` warm-starts this compilation from a previously
    compiled circuit (see :class:`CompileSeed`), so only sub-formulas whose
    clause set actually changed are re-expanded.  Raises
    :class:`CircuitBudgetError` when the circuit would exceed ``node_budget``
    nodes (the engine's cue to fall back to per-fact conditioning) and
    ``ValueError`` on an unknown heuristic name.
    """
    faults.check("compile.circuit")
    heuristic = _resolve_ordering(ordering)
    compiler = _Compiler(heuristic, node_budget, seed=seed)
    compiler.circuit.root = compiler.compile(dnf.clauses)
    return CompiledDNF(n_variables=dnf.n_variables, circuit=compiler.circuit,
                       ordering=ordering if isinstance(ordering, str) else "custom",
                       formula_cache=dict(compiler.cache) if retain_cache else None)


class ConditioningPlan:
    """Amortised conditioning of one compiled DNF across a what-if batch.

    When the formula splits into variable-disjoint islands, the compiler
    emits the complement as a decomposable AND over per-island factor
    subcircuits — the islands of
    :func:`~repro.counting.dnf_counter.recombine`.  The plan sweeps each
    factor **once** (lazily, shared by every restriction of the batch) and
    keeps only its true-branch vectors, the kernel's per-variable input.  A
    restriction resweeps only the factors whose variables it fixes, hands
    every factor's complement vector and true branches to the kernel, and
    gets back the restricted formula's model vector with either the
    surviving variables' pairs or their semivalues — per-scenario cost
    proportional to the *touched island*, not the whole formula.  On a
    single-island formula the plan degrades gracefully to one restricted
    sweep per scenario (still recompiling nothing).  The kernel's arithmetic
    is exact, so the pairs are bitwise-identical to a fresh compile-and-sweep
    of the restricted formula.
    """

    def __init__(self, compiled: CompiledDNF):
        self.compiled = compiled
        circuit = compiled.circuit
        if circuit.root < 0:
            raise ValueError("circuit has no root")
        self._circuit = circuit
        self._vectors = circuit.count_vectors()
        root = circuit.root
        self._factors: "list[int]" = (
            list(circuit.children[root]) if circuit.kind[root] == AND
            else [root])
        self._factor_of = {v: i for i, factor in enumerate(self._factors)
                           for v in circuit.scope[factor]}
        self._branches: "dict[int, dict[int, list[int]]]" = {}

    @property
    def n_factors(self) -> int:
        """Number of root factors (islands) the plan shards conditioning over."""
        return len(self._factors)

    def restricted_pairs(self, assignment: "Mapping[int, bool]",
                         ) -> "tuple[dict[int, tuple[list[int], list[int]]], bool, list[int]]":
        """Conditioned pairs of the DNF restricted by ``assignment``.

        Returns ``({v: (with_vector, without_vector)}, satisfiable, models)``
        for every *surviving* variable, each vector of length
        ``n_variables - len(assignment)`` — exactly what
        ``CompiledDNF.restrict(assignment).conditioned_pairs(survivors)``
        yields, but resweeping only the touched factors.  ``satisfiable`` is
        the restricted monotone formula's satisfiability (its value on the
        all-true world) and ``models`` its model-count-by-size vector
        (length ``n_rem + 1``) — the FGMC vector probability workloads
        interpolate.
        """
        return self._recombined(assignment, None)

    def restricted_semivalues(self, assignment: "Mapping[int, bool]",
                              weights: "Sequence[Fraction]",
                              ) -> "tuple[dict[int, Fraction], bool, list[int]]":
        """Per-variable semivalue of the restricted DNF, without pair vectors.

        ``weights[k]`` is the semivalue's weight ``w(k, n_rem)`` of a size-``k``
        coalition of the *other* surviving facts.  The kernel transposes the
        weights onto each factor (its U-transform), so a variable costs a dot
        product of island length instead of a length-``n_rem`` convolution;
        the values are exactly the ``Fraction``s ``index.combine`` would
        produce on :meth:`restricted_pairs`.  Returns
        ``({v: value}, satisfiable, models)`` as :meth:`restricted_pairs` does.
        """
        return self._recombined(assignment, weights)

    def _recombined(self, assignment: "Mapping[int, bool]",
                    weights: "Sequence[Fraction] | None"):
        fixed = {int(v): bool(b) for v, b in assignment.items()}
        n_variables = self.compiled.n_variables
        out_of_range = [v for v in fixed if not 0 <= v < n_variables]
        if out_of_range:
            raise ValueError(
                f"assignment fixes unknown variables {sorted(out_of_range)}")
        touched: "dict[int, dict[int, bool]]" = {}
        for v, value in fixed.items():
            factor = self._factor_of.get(v)
            if factor is not None:
                touched.setdefault(factor, {})[v] = value
        complements: "list[list[int]]" = []
        branches: "list[dict[int, list[int]]]" = []
        for i, factor in enumerate(self._factors):
            if i in touched:
                sub = self._circuit.restrict(touched[i], root=factor)
                vectors = sub.count_vectors()
                complements.append(vectors[sub.root])
                branches.append(sub.conditioned_pairs(vectors=vectors))
            else:
                complements.append(self._vectors[factor])
                branches.append(self._standing_branches(i))
        n_rem = n_variables - len(fixed)
        free = n_rem - sum(len(vector) - 1 for vector in complements)
        survivors_outside = [v for v in range(n_variables)
                             if v not in fixed and v not in self._factor_of]
        models, out = recombine(complements, branches, free,
                                survivors_outside, weights)
        return out, models[-1] > 0, models

    def _standing_branches(self, i: int) -> "dict[int, list[int]]":
        """Factor ``i``'s true-branch complement vectors (swept once, cached)."""
        branches = self._branches.get(i)
        if branches is None:
            branches = self._branches[i] = self._circuit.conditioned_pairs(
                root=self._factors[i], vectors=self._vectors)
        return branches


@dataclass(frozen=True)
class CompiledLineage:
    """A query lineage compiled to a circuit, addressed by fact.

    The fact-level view of :class:`CompiledDNF`: per-fact conditioned vector
    pairs (the inputs of Claim A.1) for the whole database from **one**
    top-down sweep, plus compile-time metadata for session reports.
    """

    lineage: "Lineage"
    compiled: CompiledDNF
    compile_time_s: float

    @property
    def size(self) -> int:
        """Number of circuit nodes."""
        return self.compiled.size

    @property
    def n_variables(self) -> int:
        """Number of endogenous facts (the lineage's variable count)."""
        return self.compiled.n_variables

    def count_by_size(self) -> list[int]:
        """The FGMC vector of the full lineage, read off the circuit."""
        return self.compiled.count_by_size()

    def conditioned_vector_pairs(self, facts: "list[Fact] | None" = None,
                                 ) -> "dict[Fact, tuple[list[int], list[int]]]":
        """Claim A.1's per-fact FGMC vector pairs for every requested fact at once."""
        variables = self.lineage.variables
        if facts is None:
            wanted = list(range(len(variables)))
        else:
            wanted = [self.lineage.index_of(f) for f in facts]
        pairs = self.compiled.conditioned_pairs(wanted)
        return {variables[v]: vectors for v, vectors in pairs.items()}

    def probability(self, probabilities: "Mapping[Fact, Fraction]") -> Fraction:
        """Query probability when each endogenous fact is kept independently.

        The fact-level view of :meth:`CompiledDNF.probability`: the circuit's
        weighted sweep with ``probabilities[μ]`` priced at μ's variable.
        Fixing a fact's probability to ``0`` or ``1`` conditions the standing
        circuit on its absence/presence — the primitive behind the what-if
        batch evaluation.  Facts missing from the mapping default to
        probability 0, mirroring :meth:`repro.counting.Lineage.probability`.
        """
        index = self.lineage._index
        by_index = {index[f]: Fraction(p) for f, p in probabilities.items()
                    if f in index}
        root_scope = self.compiled.circuit.scope[self.compiled.circuit.root]
        weights = {v: by_index.get(v, Fraction(0)) for v in root_scope}
        return self.compiled.probability(weights)


def compile_lineage(lineage: "Lineage", *,
                    ordering: "str | OrderingHeuristic" = DEFAULT_ORDERING,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> CompiledLineage:
    """Compile a lineage's DNF (timed — the compile time lands in session reports)."""
    import time

    start = time.perf_counter()
    compiled = compile_dnf(lineage.dnf, ordering=ordering, node_budget=node_budget)
    return CompiledLineage(lineage=lineage, compiled=compiled,
                           compile_time_s=time.perf_counter() - start)


__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_ORDERING",
    "CircuitBudgetError",
    "CompileSeed",
    "CompiledDNF",
    "CompiledLineage",
    "ConditioningPlan",
    "ORDERINGS",
    "compile_dnf",
    "compile_lineage",
    "first_variable",
    "max_occurrence",
    "min_occurrence",
]
