"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionSession, EngineConfig
from repro.core import QueryGame, shapley_values
from repro.counting import MonotoneDNF, binomial_row, convolve, fgmc_vector
from repro.data import PartitionedDatabase, atom, fact, var
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
