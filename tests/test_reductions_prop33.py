"""Tests for the Proposition 3.3 reductions (SVC ≤ FGMC, FGMC ≡ SPPQE, FMC ≡ SPQE)."""

from fractions import Fraction

import pytest

from repro.api import AttributionSession, EngineConfig
from repro.counting import fgmc_vector, fmc_vector
from repro.data import purely_endogenous
from repro.probability import TupleIndependentDatabase, probability_brute_force
from repro.reductions import (
    CallCounter,
    exact_fgmc_oracle,
    exact_sppqe_oracle,
    fgmc_via_sppqe,
    fmc_via_spqe,
    sppqe_via_fgmc,
    spqe_via_fmc,
    svc_via_fgmc,
    verify_fgmc_sppqe_equivalence,
)


class TestSVCviaFGMC:
    def test_matches_brute_force(self, q_rst, small_pdb):
        oracle = exact_fgmc_oracle("lineage")
        brute = AttributionSession(q_rst, small_pdb,
                                   EngineConfig(method="brute", on_hard="exact"))
        for f in sorted(small_pdb.endogenous)[:3]:
            assert svc_via_fgmc(q_rst, small_pdb, f, oracle) == brute.of(f).value

    def test_uses_exactly_two_oracle_calls(self, q_rst, small_pdb):
        counter = CallCounter(exact_fgmc_oracle("lineage"))
        svc_via_fgmc(q_rst, small_pdb, sorted(small_pdb.endogenous)[0], counter)
        assert counter.calls == 2

    def test_rejects_exogenous_fact(self, q_rst, rst_exogenous_pdb):
        with pytest.raises(ValueError):
            svc_via_fgmc(q_rst, rst_exogenous_pdb, sorted(rst_exogenous_pdb.exogenous)[0],
                         exact_fgmc_oracle())


class TestFGMCviaSPPQE:
    def test_recovers_exact_counts(self, q_rst, small_pdb):
        oracle = exact_sppqe_oracle("brute")
        assert fgmc_via_sppqe(q_rst, small_pdb, oracle) == fgmc_vector(q_rst, small_pdb, "brute")

    def test_number_of_oracle_calls_is_n_plus_one(self, q_rst, small_pdb):
        counter = CallCounter(exact_sppqe_oracle())
        fgmc_via_sppqe(q_rst, small_pdb, counter)
        assert counter.calls == len(small_pdb.endogenous) + 1

    def test_oracle_preserves_partitioned_database(self, q_rst, small_pdb):
        counter = CallCounter(exact_sppqe_oracle())
        fgmc_via_sppqe(q_rst, small_pdb, counter)
        assert all(entry["endogenous"] == len(small_pdb.endogenous)
                   and entry["exogenous"] == len(small_pdb.exogenous)
                   for entry in counter.log)

    def test_round_trip_equivalence(self, q_rst, q_hier, small_pdb):
        assert verify_fgmc_sppqe_equivalence(q_rst, small_pdb)
        assert verify_fgmc_sppqe_equivalence(q_hier, small_pdb)


class TestSPPQEviaFGMC:
    def test_matches_direct_probability(self, q_rst, small_pdb):
        oracle = exact_fgmc_oracle("lineage")
        for p in (Fraction(1, 4), Fraction(2, 3)):
            tid = TupleIndependentDatabase.from_partitioned(small_pdb, p)
            assert sppqe_via_fgmc(q_rst, small_pdb, p, oracle) == probability_brute_force(
                q_rst, tid)


class TestFMCandSPQE:
    def test_fmc_via_spqe(self, q_rst, endogenous_bipartite):
        oracle = exact_sppqe_oracle("brute")
        assert fmc_via_spqe(q_rst, endogenous_bipartite, oracle) == fmc_vector(
            q_rst, endogenous_bipartite, "brute")

    def test_spqe_via_fmc(self, q_rst, endogenous_bipartite):
        oracle = exact_fgmc_oracle("lineage")
        p = Fraction(1, 3)
        tid = TupleIndependentDatabase.uniform(endogenous_bipartite.endogenous, p)
        assert spqe_via_fmc(q_rst, endogenous_bipartite, p, oracle) == probability_brute_force(
            q_rst, tid)

    def test_purely_endogenous_enforced(self, q_rst, small_pdb):
        if small_pdb.exogenous:
            with pytest.raises(ValueError):
                fmc_via_spqe(q_rst, small_pdb, exact_sppqe_oracle())
            with pytest.raises(ValueError):
                spqe_via_fmc(q_rst, small_pdb, Fraction(1, 2), exact_fgmc_oracle())

    def test_accepts_plain_database(self, q_rst, small_bipartite_db):
        oracle = exact_sppqe_oracle("lineage")
        assert fmc_via_spqe(q_rst, small_bipartite_db, oracle) == fmc_vector(
            q_rst, purely_endogenous(small_bipartite_db), "lineage")
