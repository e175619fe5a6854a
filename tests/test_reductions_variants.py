"""Tests for the Section 6 reductions: Lemma 6.1/6.2, Propositions 6.1, 6.2 and 6.3."""

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.core import fgmc_constants_vector
from repro.counting import fgmc_vector, fmc_vector
from repro.data import (
    Database,
    atom,
    bipartite_rst_database,
    const,
    fact,
    partition_randomly,
    publication_keyword_database,
    purely_endogenous,
    var,
)
from repro.queries import cq, cq_with_negation, rpq
from repro.reductions import (
    CallCounter,
    ReductionHypothesisError,
    count_fmc_oracle_calls,
    exact_max_svc_oracle,
    exact_svc_const_oracle,
    exact_svc_oracle,
    fgmc_constants_via_svc_constants,
    fgmc_via_fmc,
    fgmc_via_max_svc,
    fgmc_via_svc_proposition_6_1,
    fmc_via_svcn_lemma_6_2,
    is_component_guarded,
    proposition_6_1_target,
    svcn_via_fmc,
)

X, Y, Z, W = var("x"), var("y"), var("z"), var("w")


class TestLemma61:
    def test_fgmc_via_fmc_matches_direct(self, q_rst, small_pdb):
        oracle = CallCounter(lambda q, d: fmc_vector(q, d, method="lineage"))
        assert fgmc_via_fmc(q_rst, small_pdb, oracle) == fgmc_vector(q_rst, small_pdb, "brute")

    def test_oracle_call_bound(self, q_rst, small_pdb):
        oracle = CallCounter(lambda q, d: fmc_vector(q, d, method="lineage"))
        fgmc_via_fmc(q_rst, small_pdb, oracle)
        assert oracle.calls <= count_fmc_oracle_calls(len(small_pdb.exogenous))

    def test_no_exogenous_facts_means_single_call(self, q_rst, endogenous_bipartite):
        oracle = CallCounter(lambda q, d: fmc_vector(q, d, method="lineage"))
        fgmc_via_fmc(q_rst, endogenous_bipartite, oracle)
        assert oracle.calls == 1

    def test_svcn_via_fmc_oracle_form(self, q_rst, endogenous_bipartite):
        def oracle(q, d):
            return fmc_vector(q, d, method="lineage")
        brute = AttributionSession(q_rst, endogenous_bipartite,
                                   EngineConfig(method="brute", on_hard="exact"))
        for f in sorted(endogenous_bipartite.endogenous)[:3]:
            direct = brute.of(f).value
            assert svcn_via_fmc(q_rst, endogenous_bipartite, f, oracle) == direct

    def test_svcn_via_fmc_rejects_exogenous_input(self, q_rst, small_pdb):
        if small_pdb.exogenous:
            with pytest.raises(ValueError):
                svcn_via_fmc(q_rst, small_pdb, sorted(small_pdb.endogenous)[0],
                             lambda q, d: fmc_vector(q, d))


class TestLemma62:
    def test_fmc_via_svcn_on_query_with_unshared_constant(self, q_hier, endogenous_bipartite):
        oracle = CallCounter(exact_svc_oracle("counting"))
        via_svcn = fmc_via_svcn_lemma_6_2(q_hier, endogenous_bipartite, oracle)
        assert via_svcn == fmc_vector(q_hier, endogenous_bipartite, "brute")

    def test_constructions_stay_purely_endogenous(self, q_hier, endogenous_bipartite):
        oracle = CallCounter(exact_svc_oracle("counting"))
        fmc_via_svcn_lemma_6_2(q_hier, endogenous_bipartite, oracle)
        assert all(entry.get("exogenous", 0) == 0 for entry in oracle.log)

    def test_dss_query_has_unshared_constant(self):
        # A(x) ∨ q_RST: the duplicable singleton support {A(c)} has c in exactly one fact.
        from repro.queries import ucq

        query = ucq(cq(atom("A", X)), cq(atom("R", X), atom("S", X, Y), atom("T", Y)))
        db = Database([fact("A", "u"), fact("R", "a"), fact("S", "a", "b"), fact("T", "b")])
        pdb = purely_endogenous(db)
        oracle = CallCounter(exact_svc_oracle("counting"))
        assert fmc_via_svcn_lemma_6_2(query, pdb, oracle) == fmc_vector(query, pdb, "brute")
        assert all(entry.get("exogenous", 0) == 0 for entry in oracle.log)

    def test_query_without_unshared_constant_raises(self, q_rst, endogenous_bipartite):
        # Every variable of q_RST occurs in two atoms, and every internal node of an
        # RPQ path support has degree 2, so neither admits an unshared constant.
        with pytest.raises(ReductionHypothesisError):
            fmc_via_svcn_lemma_6_2(q_rst, endogenous_bipartite, exact_svc_oracle("counting"))
        with pytest.raises(ReductionHypothesisError):
            pdb = purely_endogenous(Database([fact("A", "a", "m"), fact("B", "m", "b")]))
            fmc_via_svcn_lemma_6_2(rpq("A B C", "a", "b"), pdb, exact_svc_oracle("counting"))

    def test_exogenous_input_rejected(self, q_hier, small_pdb):
        if small_pdb.exogenous:
            with pytest.raises(ReductionHypothesisError):
                fmc_via_svcn_lemma_6_2(q_hier, small_pdb, exact_svc_oracle("counting"))


class TestProposition62:
    def test_fgmc_via_max_svc(self, q_rst, small_pdb):
        oracle = CallCounter(exact_max_svc_oracle("counting"))
        assert fgmc_via_max_svc(q_rst, small_pdb, oracle) == fgmc_vector(q_rst, small_pdb,
                                                                         "brute")
        assert oracle.calls == len(small_pdb.endogenous) + 1

    def test_on_hierarchical_query(self, q_hier, small_pdb):
        oracle = exact_max_svc_oracle("counting")
        assert fgmc_via_max_svc(q_hier, small_pdb, oracle) == fgmc_vector(q_hier, small_pdb,
                                                                          "brute")

    def test_on_rpq(self, tiny_graph_db):
        query = rpq("A B C", "a", "b")
        pdb = purely_endogenous(tiny_graph_db)
        oracle = exact_max_svc_oracle("counting")
        assert fgmc_via_max_svc(query, pdb, oracle) == fgmc_vector(query, pdb, "brute")

    def test_non_pseudo_connected_raises(self, q_decomposable, small_pdb):
        with pytest.raises(ReductionHypothesisError):
            fgmc_via_max_svc(q_decomposable, small_pdb, exact_max_svc_oracle("counting"))


class TestProposition61:
    def _instance(self, seed: int):
        base = bipartite_rst_database(2, 2, 0.7, seed=seed)
        db = Database(list(base.facts) + [fact("N", "l0", "r0"), fact("N", "l1", "r1")])
        return partition_randomly(db, 0.3, seed=seed + 30)

    def test_target_query_extraction(self):
        query = cq_with_negation([atom("R", X), atom("S", X, Y), atom("T", Y), atom("U", Z)],
                                 [atom("N", X, Y)])
        target, rest = proposition_6_1_target(query)
        assert target.positive_relation_names() == {"R", "S", "T"}
        assert target.negative_relation_names() == {"N"}
        assert rest is not None and rest.relation_names() == {"U"}

    def test_reduction_matches_direct_count(self):
        query = cq_with_negation([atom("R", X), atom("S", X, Y), atom("T", Y)],
                                 [atom("N", X, Y)])
        for seed in (1, 2):
            pdb = self._instance(seed)
            oracle = CallCounter(exact_svc_oracle("brute"))
            target, via_oracle = fgmc_via_svc_proposition_6_1(query, pdb, oracle)
            assert via_oracle == fgmc_vector(target, pdb, "brute")
            assert oracle.calls == len(pdb.endogenous) + 1

    def test_reduction_with_extra_positive_component(self):
        query = cq_with_negation([atom("R", X), atom("S", X, Y), atom("T", Y), atom("U", Z)],
                                 [atom("N", X, Y)])
        base = bipartite_rst_database(2, 2, 0.8, seed=5)
        db = Database(list(base.facts) + [fact("N", "l0", "r0"), fact("U", "u")])
        pdb = partition_randomly(db, 0.3, seed=11)
        target, via_oracle = fgmc_via_svc_proposition_6_1(query, pdb, exact_svc_oracle("brute"))
        assert via_oracle == fgmc_vector(target, pdb, "brute")

    def test_component_guarded_detection(self):
        guarded = cq_with_negation([atom("R", X), atom("S", X, Y), atom("T", Y)],
                                   [atom("N", X, Y)])
        unguarded = cq_with_negation([atom("A", X), atom("B", Y)], [atom("S", X, Y)])
        assert is_component_guarded(guarded)
        assert not is_component_guarded(unguarded)

    def test_constant_only_negative_atom_rejected(self):
        query = cq_with_negation([atom("R", X)], [atom("N", "a")])
        pdb = purely_endogenous([fact("R", "c")])
        with pytest.raises(ReductionHypothesisError):
            fgmc_via_svc_proposition_6_1(query, pdb, exact_svc_oracle("brute"))


class TestProposition63:
    def test_constants_reduction_matches_direct(self):
        query = cq(atom("Publication", X, Y), atom("Keyword", Y, "Shapley"))
        for seed in (1, 2):
            db = publication_keyword_database(3, 3, seed=seed)
            authors = sorted(c for c in db.constants() if c.name.startswith("author"))
            via_oracle = fgmc_constants_via_svc_constants(query, db, authors, None,
                                                          exact_svc_const_oracle("brute"))
            assert via_oracle == fgmc_constants_vector(query, db, authors)

    def test_counting_oracle_backend(self):
        query = cq(atom("Publication", X, Y), atom("Keyword", Y, "Shapley"))
        db = publication_keyword_database(2, 3, seed=4)
        authors = sorted(c for c in db.constants() if c.name.startswith("author"))
        via_oracle = fgmc_constants_via_svc_constants(query, db, authors, None,
                                                      exact_svc_const_oracle("counting"))
        assert via_oracle == fgmc_constants_vector(query, db, authors)

    def test_constant_free_query_over_node_players(self):
        query = cq(atom("E", X, Y))
        db = Database([fact("E", "a", "b"), fact("E", "b", "c")])
        players = sorted(db.constants())
        via_oracle = fgmc_constants_via_svc_constants(query, db, players, frozenset(),
                                                      exact_svc_const_oracle("brute"))
        assert via_oracle == fgmc_constants_vector(query, db, players, frozenset())

    def test_endogenous_query_constant_rejected(self):
        query = cq(atom("Keyword", Y, "Shapley"))
        db = Database([fact("Keyword", "p1", "Shapley")])
        with pytest.raises(ReductionHypothesisError):
            fgmc_constants_via_svc_constants(query, db, [const("Shapley")], None,
                                             exact_svc_const_oracle("brute"))

    def test_hom_closed_required(self):
        query = cq_with_negation([atom("R", X)], [atom("N", X)])
        db = Database([fact("R", "a")])
        with pytest.raises(ReductionHypothesisError):
            fgmc_constants_via_svc_constants(query, db, [const("a")], None,
                                             exact_svc_const_oracle("brute"))
