"""Tests for the experiment drivers and end-to-end integration scenarios."""

from fractions import Fraction

from repro.experiments import (
    format_table,
    full_catalog,
    run_constants_variant,
    run_counting_ablation,
    run_endogenous_variant,
    run_figure1a,
    run_figure1b,
    run_figure2,
    run_max_svc_variant,
    run_negation_variant,
    run_shapley_ranking_example,
)


class TestExperimentDrivers:
    def test_figure1a_all_arrows_verified(self):
        rows = run_figure1a(max_endogenous=5)
        assert rows
        assert all(row["verified"] for row in rows)
        arrows = {row["arrow"] for row in rows}
        assert "SVC ≤ FGMC" in arrows and "FGMC ≤ SVC (Lemma 4.1)" in arrows

    def test_figure1b_matches_paper(self):
        rows = run_figure1b()
        assert len(rows) == len(full_catalog())
        assert all(row["agrees"] for row in rows)

    def test_figure2_constructions_verified(self):
        rows = run_figure2(sizes=(2, 3))
        assert rows
        assert all(row["verified"] for row in rows)
        assert all(row["oracle calls"] == row["endogenous facts"] + 1 for row in rows)

    def test_endogenous_variant(self):
        rows = run_endogenous_variant(seeds=(1,))
        assert all(row["Lemma 6.1 verified"] and row["Corollary 6.1 verified"]
                   and row["Lemma 6.2 verified"] for row in rows)
        assert all(row["Lemma 6.1 FMC calls"] <= row["Lemma 6.1 bound 2^k"] for row in rows)

    def test_max_svc_variant(self):
        rows = run_max_svc_variant(seeds=(1,))
        assert all(row["Prop 6.2 verified"] and row["shortcut agrees"] for row in rows)

    def test_constants_variant(self):
        rows = run_constants_variant(seeds=(1,))
        assert all(row["Prop 6.3 verified"] and row["counting == brute"] for row in rows)

    def test_negation_variant(self):
        rows = run_negation_variant(seeds=(1,))
        assert all(row["Prop 6.1 verified"] for row in rows)

    def test_counting_ablation_agrees(self):
        rows = run_counting_ablation(sizes=(2, 3))
        assert all(row.get("agree", True) for row in rows)

    def test_ranking_example_rows(self):
        rows = run_shapley_ranking_example(size=2)
        assert rows and all("shapley value" in row for row in rows)

    def test_format_table_renders(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="demo")
        assert "demo" in text and "22" in text
        assert format_table([]) == "(no rows)"


class TestEndToEndScenarios:
    def test_fact_attribution_story(self):
        """The quickstart story: rank the S facts of a bipartite instance for q_RST."""
        from repro.api import AttributionSession, EngineConfig
        from repro.data import bipartite_rst_database, partition_by_relation
        from repro.experiments import q_rst

        db = bipartite_rst_database(3, 3, 0.5, seed=11)
        pdb = partition_by_relation(db, exogenous_relations=("R", "T"))
        ranking = AttributionSession(q_rst(), pdb, EngineConfig(
            method="counting", on_hard="exact")).ranking()
        assert len(ranking) == len(pdb.endogenous)
        total = sum(value for _, value in ranking)
        from repro.core import QueryGame

        assert total == QueryGame(q_rst(), pdb).value(pdb.endogenous)

    def test_author_expertise_story(self):
        """The Section 6.4 story: Shapley values of author constants for q*."""
        from repro.core import shapley_values_of_constants
        from repro.data import publication_keyword_database
        from repro.experiments import q_star_publication

        db = publication_keyword_database(4, 6, seed=5)
        # Only authors that actually appear in the database are players here
        # (an author with no publication would trivially get value 0 anyway).
        authors = sorted(c for c in db.constants() if c.name.startswith("author"))
        values = shapley_values_of_constants(q_star_publication(), db, authors)
        assert len(values) == len(authors) >= 2
        assert all(value >= 0 for value in values.values())

    def test_reachability_story(self):
        """The RPQ story: which edges explain reachability from s to t."""
        from repro.api import AttributionSession, EngineConfig
        from repro.data import Database, fact, purely_endogenous
        from repro.queries import rpq

        db = Database([
            fact("road", "s", "u"), fact("road", "u", "t"),
            fact("rail", "s", "v"), fact("road", "v", "t"),
        ])
        query = rpq("(road|rail) road", "s", "t")
        values = AttributionSession(query, purely_endogenous(db), EngineConfig(
            method="counting", on_hard="exact")).values()
        assert sum(values.values()) == 1
        # The two parallel two-edge routes are symmetric.
        assert values[fact("road", "s", "u")] == values[fact("rail", "s", "v")]

    def test_dichotomy_guides_algorithm_choice(self):
        """classify_svc verdicts line up with which solver succeeds in polynomial style."""
        from repro.analysis import Complexity, classify_svc
        from repro.api import AttributionSession, EngineConfig
        from repro.data import bipartite_rst_database, partition_by_relation
        from repro.experiments import q_hierarchical, q_rst
        from repro.probability import UnsafeQueryError

        db = bipartite_rst_database(2, 2, 1.0, seed=0)
        pdb = partition_by_relation(db, exogenous_relations=("R", "T"))
        target = sorted(pdb.endogenous)[0]

        assert classify_svc(q_hierarchical()).complexity is Complexity.FP
        value = AttributionSession(q_hierarchical(), pdb, EngineConfig(
            method="safe", on_hard="exact")).of(target).value
        assert 0 <= value <= 1

        assert classify_svc(q_rst()).complexity is Complexity.SHARP_P_HARD
        try:
            AttributionSession(q_rst(), pdb, EngineConfig(
                method="safe", on_hard="exact")).of(target)
            raised = False
        except UnsafeQueryError:
            raised = True
        assert raised

    def test_full_reduction_chain_gmc_to_svc_and_back(self):
        """Walk a full cycle of Figure 1a: FGMC -> SPPQE -> FGMC -> SVC -> FGMC."""
        from repro.counting import fgmc_vector
        from repro.data import bipartite_rst_database, partition_randomly
        from repro.experiments import q_rst
        from repro.probability import sppqe_from_fgmc_vector
        from repro.reductions import (
            exact_svc_oracle,
            exact_sppqe_oracle,
            fgmc_via_sppqe,
            fgmc_via_svc_lemma_4_1,
        )

        query = q_rst()
        pdb = partition_randomly(bipartite_rst_database(2, 2, 0.8, seed=3), 0.3, seed=9)
        direct = fgmc_vector(query, pdb, "brute")
        via_probability = fgmc_via_sppqe(query, pdb, exact_sppqe_oracle("lineage"))
        via_shapley = fgmc_via_svc_lemma_4_1(query, pdb, exact_svc_oracle("counting"))
        assert direct == via_probability == via_shapley
        probability = sppqe_from_fgmc_vector(direct, Fraction(1, 2))
        assert 0 <= probability <= 1
