"""Tests for the process-parallel SVC engine backend.

The contract under test: with ``workers > 1`` the engine shards the per-fact
work across a process pool and returns **bitwise-identical** ``Fraction``
values and identical rankings to the serial engine — parallelism may only ever
change wall-clock time, never a value — and degrades gracefully to the serial
path whenever the instance is small, the shared artefact fails to pickle, or
no pool can be created.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionSession, ConfigError, EngineConfig
from repro.data import Database, PartitionedDatabase, atom, fact, var
from repro.engine import SVCEngine, clear_engine_cache, get_engine
from repro.experiments import bipartite_attribution_instance, full_catalog, run_parallel_vs_serial
from repro.queries import ConjunctiveQuery, cq

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")
Q_HIER = cq(atom("R", X), atom("S", X, Y), name="q_hier")

CATALOG = full_catalog()


def _vocabulary_arities(query) -> dict[str, int]:
    """Relation name → arity over the query's vocabulary (RPQ/CRPQ are binary)."""
    from repro.queries import ConjunctiveQueryWithNegation, UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        return {a.relation: a.arity for a in query.atoms}
    if isinstance(query, UnionOfConjunctiveQueries):
        arities: dict[str, int] = {}
        for disjunct in query.disjuncts:
            arities.update(_vocabulary_arities(disjunct))
        return arities
    if isinstance(query, ConjunctiveQueryWithNegation):
        return {a.relation: a.arity for a in query.atoms}
    return {name: 2 for name in query.relation_names()}


def _catalog_instance(query) -> PartitionedDatabase:
    """A small deterministic database over the query's vocabulary.

    Every relation contributes a few facts over the constants ``a``/``b``;
    facts alternate between the endogenous and exogenous part so each backend
    exercises a non-trivial conditioning.
    """
    import itertools

    endogenous, exogenous = set(), set()
    toggle = True
    for relation, arity in sorted(_vocabulary_arities(query).items()):
        for args in itertools.islice(itertools.product(["a", "b"], repeat=arity), 3):
            f = fact(relation, *args)
            (endogenous if toggle else exogenous).add(f)
            toggle = not toggle
    return PartitionedDatabase(endogenous, exogenous - endogenous)


def _assert_bitwise_parity(serial: dict, parallel: dict) -> None:
    assert parallel == serial
    for f, value in parallel.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            serial[f].numerator, serial[f].denominator)


# --------------------------------------------------------------------------
# Parity with the serial engine
# --------------------------------------------------------------------------

class TestCatalogParity:
    """Acceptance criterion: exact parity across the full query catalog."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
    def test_parallel_matches_serial_on_catalog(self, entry, workers):
        # shard="fact" pins the striping axis this file is about; the
        # component axis has its own parity suite in tests/test_sharding.py.
        pdb = _catalog_instance(entry.query)
        serial_engine = SVCEngine(entry.query, pdb, shard="fact")
        serial = serial_engine.all_values()
        engine = SVCEngine(entry.query, pdb, workers=workers, parallel_threshold=0,
                           shard="fact")
        _assert_bitwise_parity(serial, engine.all_values())
        assert engine.ranking() == serial_engine.ranking()
        assert engine.backend() == serial_engine.backend()
        if pdb.endogenous:
            # Every catalog query (and its artefact) pickles, so the pool must
            # actually have run — parity above is not a vacuous fallback.
            # workers_used reports min(workers, stripes): fact-sharded
            # backends stripe |Dn| facts, brute stripes |Dn|+1 coalition sizes.
            stripes = (len(pdb.endogenous) + 1 if engine.backend() == "brute"
                       else len(pdb.endogenous))
            assert engine.workers_used == min(workers, stripes)
            assert engine.workers_used > 1

    @pytest.mark.parametrize("method", ["circuit", "counting", "safe", "brute"])
    def test_explicit_backends_shard_and_agree(self, method):
        query = Q_HIER if method == "safe" else Q_RST
        pdb = bipartite_attribution_instance(2, 4, exogenous_pad=3)
        serial = SVCEngine(query, pdb, method=method).all_values()
        engine = SVCEngine(query, pdb, method=method, workers=2, parallel_threshold=2)
        _assert_bitwise_parity(serial, engine.all_values())
        assert engine.workers_used == 2


constants = st.sampled_from(["a", "b", "c"])


@st.composite
def rst_pdbs(draw, max_endogenous=5, max_exogenous=2):
    kinds = st.sampled_from(["R", "S", "T"])
    facts = set()
    for _ in range(draw(st.integers(0, max_endogenous + max_exogenous))):
        kind = draw(kinds)
        args = [draw(constants)] if kind in ("R", "T") else [draw(constants), draw(constants)]
        facts.add(fact(kind, *args))
    facts = sorted(facts)
    endo = frozenset(draw(st.sets(st.sampled_from(facts), max_size=max_endogenous))
                     if facts else [])
    return PartitionedDatabase(endo, frozenset(facts) - endo)


@given(rst_pdbs(), st.sampled_from([2, 4]))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_parallel_equals_serial(pdb, workers):
    serial = SVCEngine(Q_RST, pdb).all_values()
    engine = SVCEngine(Q_RST, pdb, workers=workers, parallel_threshold=0)
    _assert_bitwise_parity(serial, engine.all_values())
    assert engine.ranking() == sorted(serial.items(),
                                      key=lambda item: (-item[1], item[0]))


# --------------------------------------------------------------------------
# Graceful degradation
# --------------------------------------------------------------------------

class TestSerialFallback:
    def test_workers_one_never_spawns_a_pool(self, monkeypatch):
        from repro.engine import parallel

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("workers=1 must stay on the serial path")

        monkeypatch.setattr(parallel, "parallel_pairs", boom)
        pdb = bipartite_attribution_instance(2, 3)
        engine = SVCEngine(Q_RST, pdb, workers=1, parallel_threshold=0)
        assert engine.all_values()
        assert engine.workers_used == 1

    def test_small_instance_stays_serial(self, monkeypatch):
        from repro.engine import parallel

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("below parallel_threshold the pool must not spawn")

        monkeypatch.setattr(parallel, "parallel_pairs", boom)
        pdb = bipartite_attribution_instance(2, 3)
        engine = SVCEngine(Q_RST, pdb, workers=4, parallel_threshold=10_000)
        assert engine.all_values() == SVCEngine(Q_RST, pdb).all_values()
        assert engine.workers_used == 1

    def test_unpicklable_artefact_falls_back_to_serial(self):
        """An artefact that will not pickle must not crash the engine."""

        class LocalQuery(ConjunctiveQuery):
            """Defined inside the test: unreachable by pickle-by-reference."""

        query = LocalQuery([atom("R", X), atom("S", X, Y), atom("T", Y)], name="local")
        with pytest.raises(Exception):
            pickle.dumps(query)
        pdb = bipartite_attribution_instance(2, 3)
        reference = SVCEngine(Q_RST, pdb, method="brute").all_values()
        engine = SVCEngine(query, pdb, method="brute", workers=2,
                           parallel_threshold=0)
        values = engine.all_values()
        assert engine.workers_used == 1
        assert {str(f): v for f, v in values.items()} == {
            str(f): v for f, v in reference.items()}

    def test_lineage_artefact_of_unpicklable_query_still_shards(self):
        """The counting backend ships only the lineage, so an unpicklable
        query is no obstacle once its lineage is built in the parent."""

        class LocalQuery(ConjunctiveQuery):
            pass

        query = LocalQuery([atom("R", X), atom("S", X, Y), atom("T", Y)], name="local")
        pdb = bipartite_attribution_instance(2, 3)
        engine = SVCEngine(query, pdb, method="counting", workers=2,
                           parallel_threshold=0)
        values = engine.all_values()
        assert engine.workers_used == 2
        reference = SVCEngine(Q_RST, pdb, method="counting").all_values()
        assert {str(f): v for f, v in values.items()} == {
            str(f): v for f, v in reference.items()}

    def test_mostly_memoised_engine_keeps_leftovers_serial(self, monkeypatch):
        """When nearly every value is already memoised, the leftover per-fact
        work must not pay for a pool (the gate is the pending count, not |Dn|)."""
        from repro.engine import parallel

        def boom(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("leftover work below threshold must stay serial")

        monkeypatch.setattr(parallel, "parallel_pairs", boom)
        pdb = bipartite_attribution_instance(2, 4)  # |Dn| = 8
        engine = SVCEngine(Q_RST, pdb, method="counting", workers=4,
                           parallel_threshold=8, shard="fact")
        facts = sorted(pdb.endogenous)
        for f in facts[:-1]:
            engine.value_of(f)
        assert engine.all_values() == SVCEngine(Q_RST, pdb,
                                                method="counting").all_values()
        assert engine.workers_used == 1

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.engine import parallel

        monkeypatch.setattr(parallel, "parallel_pairs",
                            lambda *args, **kwargs: None)
        pdb = bipartite_attribution_instance(2, 3)
        engine = SVCEngine(Q_RST, pdb, workers=2, parallel_threshold=0,
                           shard="fact")
        assert engine.all_values() == SVCEngine(Q_RST, pdb).all_values()
        assert engine.workers_used == 1


# --------------------------------------------------------------------------
# Configuration plumbing
# --------------------------------------------------------------------------

class TestKnobs:
    def test_engine_validates_workers(self):
        pdb = PartitionedDatabase({fact("R", "a")}, ())
        with pytest.raises(ValueError):
            SVCEngine(Q_RST, pdb, workers=0)
        with pytest.raises(ValueError):
            SVCEngine(Q_RST, pdb, parallel_threshold=-1)
        for method in ("circut", "nope", "sampled"):
            with pytest.raises(ValueError, match="method must be one of"):
                SVCEngine(Q_RST, pdb, method=method)
        with pytest.raises(ValueError, match="method must be one of"):
            get_engine(Q_RST, pdb, "circut")

    def test_engine_config_validates_workers(self):
        with pytest.raises(ConfigError):
            EngineConfig(workers=0)
        with pytest.raises(ConfigError):
            EngineConfig(parallel_threshold=-1)

    def test_get_engine_keys_on_workers(self):
        clear_engine_cache()
        pdb = PartitionedDatabase({fact("R", "a")}, ())
        serial = get_engine(Q_RST, pdb)
        assert get_engine(Q_RST, pdb, workers=2) is not serial
        assert get_engine(Q_RST, pdb, workers=2) is get_engine(Q_RST, pdb, workers=2)
        clear_engine_cache()

    def test_session_threads_workers_into_report(self):
        pdb = bipartite_attribution_instance(2, 4)
        config = EngineConfig(method="counting", workers=2, parallel_threshold=2,
                              on_hard="exact")
        session = AttributionSession(Q_RST, pdb, config)
        serial = AttributionSession(Q_RST, pdb, EngineConfig(method="counting",
                                                             on_hard="exact"))
        assert session.values() == serial.values()
        report = session.report()
        assert report.workers_used == 2
        assert report.to_json_dict()["workers_used"] == 2
        assert serial.report().workers_used == 1

    def test_experiment_rows_report_parity(self):
        rows = run_parallel_vs_serial(shapes=((2, 3),), workers=2, exogenous_pad=2)
        assert all(row["exact match"] for row in rows)
        assert all(row["workers used"] == 2 for row in rows)


# --------------------------------------------------------------------------
# Pickle support for the shared artefacts (regression for __reduce__)
# --------------------------------------------------------------------------

class TestArtefactPickling:
    def test_fact_and_atom_round_trip(self):
        for obj in (fact("R", "a"), fact("S", "a", "b"), atom("R", X)):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj and type(clone) is type(obj)

    def test_databases_round_trip(self):
        db = Database([fact("R", "a"), fact("S", "a", "b")])
        assert pickle.loads(pickle.dumps(db)) == db
        pdb = PartitionedDatabase({fact("R", "a")}, {fact("T", "b")})
        clone = pickle.loads(pickle.dumps(pdb))
        assert clone == pdb
        with pytest.raises(AttributeError):
            clone.endogenous = frozenset()  # still immutable after the trip

    @pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
    def test_every_catalog_query_round_trips(self, entry):
        clone = pickle.loads(pickle.dumps(entry.query))
        assert clone == entry.query

    def test_lineage_and_plan_round_trip(self):
        from repro.counting import build_lineage
        from repro.probability.lifted import safe_plan

        pdb = bipartite_attribution_instance(2, 3)
        lineage = build_lineage(Q_RST, pdb)
        clone = pickle.loads(pickle.dumps(lineage))
        assert clone.dnf.clauses == lineage.dnf.clauses
        assert clone.variables == lineage.variables
        assert pickle.loads(pickle.dumps(safe_plan(Q_HIER))) == safe_plan(Q_HIER)
