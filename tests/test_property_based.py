"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionSession, EngineConfig
from repro.core import QueryGame, shapley_values
from repro.counting import MonotoneDNF, binomial_row, convolve, fgmc_vector
from repro.data import PartitionedDatabase, atom, const, fact, var
from repro.linalg import island_system_matrix, solve_linear_system, vandermonde_solve
from repro.probability import TupleIndependentDatabase, probability_brute_force, probability_via_lineage
from repro.queries import cq

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y))
Q_HIER = cq(atom("R", X), atom("S", X, Y))


def _exact(query, pdb, method):
    """A session that never samples (``on_hard="exact"``)."""
    return AttributionSession(query, pdb, EngineConfig(method=method, on_hard="exact"))

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

constants = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def rst_facts(draw):
    kind = draw(st.sampled_from(["R", "S", "T"]))
    if kind == "R":
        return fact("R", draw(constants))
    if kind == "T":
        return fact("T", draw(constants))
    return fact("S", draw(constants), draw(constants))


@st.composite
def partitioned_databases(draw, max_endogenous=5, max_exogenous=3):
    endo = draw(st.sets(rst_facts(), min_size=0, max_size=max_endogenous))
    exo = draw(st.sets(rst_facts(), min_size=0, max_size=max_exogenous))
    return PartitionedDatabase(endo, exo - endo)


@st.composite
def monotone_dnfs(draw, max_vars=6, max_clauses=4):
    n = draw(st.integers(min_value=0, max_value=max_vars))
    if n == 0:
        return MonotoneDNF(0, [])
    clauses = draw(st.lists(
        st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3),
        min_size=0, max_size=max_clauses))
    return MonotoneDNF(n, clauses)


# --------------------------------------------------------------------------
# Counting invariants
# --------------------------------------------------------------------------

@given(monotone_dnfs())
@settings(max_examples=60, deadline=None)
def test_dnf_counts_are_bounded_by_binomials(dnf):
    counts = dnf.count_by_size()
    assert len(counts) == dnf.n_variables + 1
    for k, value in enumerate(counts):
        assert 0 <= value <= math.comb(dnf.n_variables, k)


@given(monotone_dnfs())
@settings(max_examples=60, deadline=None)
def test_dnf_counts_match_enumeration(dnf):
    import itertools

    expected = [0] * (dnf.n_variables + 1)
    for size in range(dnf.n_variables + 1):
        for subset in itertools.combinations(range(dnf.n_variables), size):
            if dnf.evaluate(subset):
                expected[size] += 1
    assert dnf.count_by_size() == expected


@given(monotone_dnfs())
@settings(max_examples=40, deadline=None)
def test_dnf_counts_are_monotone_in_added_clause(dnf):
    if dnf.n_variables == 0:
        return
    extra_clause = frozenset({0})
    larger = MonotoneDNF(dnf.n_variables, set(dnf.clauses) | {extra_clause})
    assert all(a <= b for a, b in zip(dnf.count_by_size(), larger.count_by_size()))


@given(monotone_dnfs())
@settings(max_examples=40, deadline=None)
def test_dnf_probability_at_half_matches_counts(dnf):
    probability = dnf.probability({v: Fraction(1, 2) for v in range(dnf.n_variables)})
    assert probability == Fraction(sum(dnf.count_by_size()), 2 ** dnf.n_variables)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_convolution_of_binomial_rows_is_binomial(n, m):
    assert convolve(binomial_row(n), binomial_row(m)) == binomial_row(n + m)


# --------------------------------------------------------------------------
# FGMC / PQE invariants on query instances
# --------------------------------------------------------------------------

@given(partitioned_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fgmc_lineage_equals_brute(pdb):
    assert fgmc_vector(Q_RST, pdb, "lineage") == fgmc_vector(Q_RST, pdb, "brute")


@given(partitioned_databases())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fgmc_vector_is_monotone_under_exogenous_growth(pdb):
    # Making an endogenous fact exogenous can only increase each remaining count.
    if not pdb.endogenous:
        return
    moved = sorted(pdb.endogenous)[0]
    promoted = PartitionedDatabase(pdb.endogenous - {moved}, pdb.exogenous | {moved})
    original = fgmc_vector(Q_RST, pdb, "lineage")
    lifted = fgmc_vector(Q_RST, promoted, "lineage")
    assert all(lifted[k] >= original[k] - math.comb(len(pdb.endogenous) - 1, k - 1 if k else 0)
               for k in range(len(lifted)))
    # A cleaner invariant: total counts never decrease by more than a factor 2
    # when one fact becomes exogenous (each support either kept or merged).
    assert 2 * sum(lifted) >= sum(original)


@given(partitioned_databases(max_endogenous=4, max_exogenous=2),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_pqe_lineage_equals_brute(pdb, p):
    tid = TupleIndependentDatabase.from_partitioned(pdb, p)
    assert probability_via_lineage(Q_RST, tid) == probability_brute_force(Q_RST, tid)


# --------------------------------------------------------------------------
# Shapley value axioms on query games
# --------------------------------------------------------------------------

@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shapley_efficiency_axiom(pdb):
    game = QueryGame(Q_RST, pdb)
    values = shapley_values(game)
    assert sum(values.values(), Fraction(0)) == game.value(pdb.endogenous)


@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shapley_null_player_axiom(pdb):
    # Facts irrelevant to the query (wrong relation pattern) always get value 0.
    game = QueryGame(Q_RST, pdb)
    values = shapley_values(game)
    for f, value in values.items():
        helps = any(game.marginal_contribution(frozenset(coalition), f) != 0
                    for coalition in _all_subsets(sorted(pdb.endogenous - {f})))
        if not helps:
            assert value == 0
        assert value >= 0  # monotone games have non-negative Shapley values


def _all_subsets(items):
    import itertools

    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shapley_values_bounded_by_one(pdb):
    values = shapley_values(QueryGame(Q_RST, pdb))
    assert all(0 <= value <= 1 for value in values.values())


@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_counting_svc_equals_brute_svc(pdb):
    counting, brute = (_exact(Q_RST, pdb, method) for method in ("counting", "brute"))
    for f in sorted(pdb.endogenous)[:2]:
        assert counting.of(f).value == brute.of(f).value


@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_safe_pipeline_equals_brute_on_hierarchical_query(pdb):
    safe, brute = (_exact(Q_HIER, pdb, method) for method in ("safe", "brute"))
    for f in sorted(pdb.endogenous)[:2]:
        assert safe.of(f).value == brute.of(f).value


# --------------------------------------------------------------------------
# Exact linear algebra
# --------------------------------------------------------------------------

@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_vandermonde_round_trip(coefficients):
    points = [Fraction(i + 1) for i in range(len(coefficients))]
    values = [sum(Fraction(c) * point ** j for j, c in enumerate(coefficients))
              for point in points]
    assert vandermonde_solve(points, values) == [Fraction(c) for c in coefficients]


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=3),
       st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_island_system_round_trip(n, s, raw_counts):
    counts = [Fraction(raw_counts[j % len(raw_counts)]) for j in range(n + 1)]
    matrix = island_system_matrix(n, s)
    rhs = [sum(matrix[i][j] * counts[j] for j in range(n + 1)) for i in range(n + 1)]
    assert solve_linear_system(matrix, rhs) == counts


# --------------------------------------------------------------------------
# Reduction round trip (Lemma 4.1) on random instances
# --------------------------------------------------------------------------

@given(partitioned_databases(max_endogenous=4, max_exogenous=2))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lemma_4_1_round_trip_on_random_instances(pdb):
    from repro.reductions import exact_svc_oracle, fgmc_via_svc_lemma_4_1

    via_svc = fgmc_via_svc_lemma_4_1(Q_RST, pdb, exact_svc_oracle("counting"))
    assert via_svc == fgmc_vector(Q_RST, pdb, "brute")


# --------------------------------------------------------------------------
# The join layer: homomorphisms against a nested-loop reference scan
# --------------------------------------------------------------------------

def _join_queries():
    """Catalog CQs, UCQ disjuncts and CQ¬ positive parts, plus join edge cases."""
    from repro.experiments import (
        full_catalog,
        q_disconnected_constants,
        q_example_d1,
        q_example_d2,
        q_leak_example,
        q_shattering_example,
        q_star_publication,
    )
    from repro.queries import (
        ConjunctiveQuery,
        ConjunctiveQueryWithNegation,
        UnionOfConjunctiveQueries,
    )

    Z = var("z")
    queries = []
    for entry in full_catalog():
        query = entry.query
        if isinstance(query, ConjunctiveQuery):
            queries.append((entry.name, query))
        elif isinstance(query, UnionOfConjunctiveQueries):
            queries += [(f"{entry.name}[{i}]", d) for i, d in enumerate(query.disjuncts)]
        elif isinstance(query, ConjunctiveQueryWithNegation):
            queries.append((f"{entry.name}+", query.positive_query()))
    queries += [(q.name, q) for q in (q_leak_example(), q_shattering_example(),
                                      q_star_publication(), q_disconnected_constants())]
    queries += [("q_D1+", q_example_d1().positive_query()),
                ("q_D2+", q_example_d2().positive_query()),
                ("self_join_path", cq(atom("S", X, Y), atom("S", Y, Z))),
                ("self_join_cycle", cq(atom("S", X, Y), atom("S", Y, X), atom("R", X))),
                ("repeated_variable", cq(atom("V", X, Y, X), atom("S", Y, Y))),
                ("constants", cq(atom("S", "a", X), atom("S", X, Y), atom("T", "c"))),
                ("two_arities", cq(atom("R", X), atom("R", X, Y), atom("A", Y)))]
    return queries


JOIN_QUERIES = _join_queries()


@st.composite
def join_databases(draw, atoms, max_size=18):
    """A random fact set for a join over ``atoms``.

    Facts use the atoms' relations and arities over the query constants plus
    two others, so joins do match; up to three distractor facts put each
    relation at a second arity, which the join must keep apart.
    """
    import itertools

    schema = {(a.relation, a.arity) for a in atoms}
    names = sorted({c.name for a in atoms for c in a.constants()} | {"c", "d"})

    def every_fact(relations):
        return [fact(r, *args) for r, k in sorted(relations)
                for args in itertools.product(names, repeat=k)]

    core = draw(st.lists(st.sampled_from(every_fact(schema)),
                         min_size=len(schema), max_size=max_size))
    distractors = draw(st.lists(st.sampled_from(every_fact({(r, k + 1) for r, k in schema})),
                                max_size=3))
    return frozenset(core + distractors)


def _reference_homomorphisms(query, facts, partial=None):
    """The nested-loop scan the join layer replaced: for each atom in turn,
    every fact of the database, kept when it agrees with the assignment."""
    from repro.data import is_constant

    assignment = {c: c for c in query.constants()}
    for term, value in (partial or {}).items():
        if is_constant(term) and term != value:
            return []
        assignment[term] = value
    found = []

    def extend(index):
        if index == len(query.atoms):
            found.append(dict(assignment))
            return
        atom_ = query.atoms[index]
        for candidate in facts:
            if (candidate.relation, candidate.arity) != (atom_.relation, atom_.arity):
                continue
            added = []
            for term, value in zip(atom_.terms, candidate.terms):
                current = assignment.get(term)
                if current is None:
                    assignment[term] = value
                    added.append(term)
                elif current != value:
                    break
            else:
                extend(index + 1)
            for term in added:
                del assignment[term]

    extend(0)
    return found


def _hom_set(homomorphisms):
    return {frozenset(h.items()) for h in homomorphisms}


@pytest.mark.parametrize("query", [q for _, q in JOIN_QUERIES],
                         ids=[name for name, _ in JOIN_QUERIES])
@given(data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_join_yields_the_nested_loop_homomorphisms(query, data):
    """The indexed join finds exactly the scan's homomorphisms, each once,
    with and without a ``partial`` pin: one atom unified with a fact, as the
    delta search pins it, and one variable pinned to a constant."""
    from repro.incremental.delta import _pinned_partial

    facts = data.draw(join_databases(query.atoms))
    pins = [None]
    if facts:
        pin = _pinned_partial(data.draw(st.sampled_from(query.atoms)),
                              data.draw(st.sampled_from(sorted(facts))))
        pins.append(pin)
    if query.variables():
        variable = data.draw(st.sampled_from(sorted(query.variables())))
        value = data.draw(st.sampled_from(sorted({t for f in facts for t in f.terms}
                                                 | {const("c")})))
        pins.append({variable: value})
    for pin in pins:
        homs = list(query.homomorphisms(facts, partial=pin))
        assert len(homs) == len(_hom_set(homs))
        assert _hom_set(homs) == _hom_set(_reference_homomorphisms(query, facts, pin))


def test_join_rejects_a_partial_that_moves_a_constant():
    """A pin sending a constant elsewhere admits no homomorphism at all."""
    query = cq(atom("S", "a", X))
    facts = {fact("S", "a", "b"), fact("S", "b", "b")}
    assert len(list(query.homomorphisms(facts))) == 1
    assert list(query.homomorphisms(facts, partial={const("a"): const("b")})) == []


def test_join_index_is_reusable_across_searches():
    """One JoinIndex serves every query and pin, as the delta search uses it."""
    from repro.queries.cq import JoinIndex

    facts = frozenset({fact("R", "c"), fact("S", "c", "d"), fact("S", "d", "c"),
                       fact("T", "d"), fact("R", "d"), fact("R", "c", "d"),
                       fact("S", "d", "d"), fact("A", "d"), fact("U", "c", "d")})
    index = JoinIndex(facts)
    found = 0
    for name, query in JOIN_QUERIES:
        for pin in (None, {X: const("c")}, {X: const("d")}):
            homs = _hom_set(query.homomorphisms(index, partial=pin))
            assert homs == _hom_set(_reference_homomorphisms(query, facts, pin)), name
            found += len(homs)
    assert found > 0


def _negation_queries():
    from repro.experiments import full_catalog, q_example_d1, q_example_d2
    from repro.queries import ConjunctiveQueryWithNegation

    queries = [(e.name, e.query) for e in full_catalog()
               if isinstance(e.query, ConjunctiveQueryWithNegation)]
    return queries + [("q_D1", q_example_d1()), ("q_D2", q_example_d2())]


NEGATION_QUERIES = _negation_queries()


def _negated_atoms(query):
    return getattr(query, "negative", ()) + getattr(query, "negated_conjunction", ())


def _reference_evaluate(query, facts):
    """Negation semantics over the reference scan of the positive part."""
    for hom in _reference_homomorphisms(query.positive_query(), facts):
        present = [a.substitute(hom) in facts for a in _negated_atoms(query)]
        if not (any(present) if hasattr(query, "negative") else all(present)):
            return True
    return False


@pytest.mark.parametrize("query", [q for _, q in NEGATION_QUERIES],
                         ids=[name for name, _ in NEGATION_QUERIES])
@given(data=st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_negation_evaluate_matches_the_reference_scan(query, data):
    """q_negation_hard, Examples D.1 and D.2 (and every catalog CQ¬) evaluate
    as the scan of their positive part, filtered by the negation, says."""
    facts = data.draw(join_databases(query.positive + _negated_atoms(query), max_size=14))
    assert query.evaluate(facts) == _reference_evaluate(query, facts)


def _hom_closed_queries():
    from repro.experiments import full_catalog
    from repro.queries import ConjunctiveQuery, UnionOfConjunctiveQueries

    return [(e.name, e.query) for e in full_catalog()
            if isinstance(e.query, (ConjunctiveQuery, UnionOfConjunctiveQueries))]


HOM_CLOSED_QUERIES = _hom_closed_queries()


@pytest.mark.parametrize("query", [q for _, q in HOM_CLOSED_QUERIES],
                         ids=[name for name, _ in HOM_CLOSED_QUERIES])
@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lineage_clauses_come_from_the_reference_supports(query, data):
    """``build_lineage`` yields exactly the clauses of the minimal supports of
    the reference scan's homomorphism images, over ``sorted(Dn)``."""
    from repro.counting.lineage import build_lineage
    from repro.queries import ConjunctiveQuery
    from repro.queries.base import minimize_supports

    disjuncts = (query,) if isinstance(query, ConjunctiveQuery) else query.disjuncts
    facts = data.draw(join_databases([a for d in disjuncts for a in d.atoms], max_size=14))
    endogenous = frozenset(data.draw(st.lists(st.sampled_from(sorted(facts)), unique=True))
                           if facts else ())
    pdb = PartitionedDatabase(endogenous, facts - endogenous)
    variables = tuple(sorted(endogenous))
    index = {f: i for i, f in enumerate(variables)}

    def images(within):
        return {frozenset(a.substitute(h) for a in d.atoms)
                for d in disjuncts for h in _reference_homomorphisms(d, within)}

    if images(pdb.exogenous):
        expected = {frozenset()}
    else:
        # Dropping the exogenous facts can nest two minimal supports' clauses.
        expected = minimize_supports(frozenset(index[f] for f in support - pdb.exogenous)
                                     for support in minimize_supports(images(facts)))
    lineage = build_lineage(query, pdb)
    assert lineage.variables == variables
    assert lineage.dnf.clauses == frozenset(expected)
