"""Tests for ``repro.workspace``: stores, delta invalidation, incremental parity.

The acceptance contract exercised here:

* after ANY sequence of deltas, ``workspace.refresh()`` values are
  bitwise-identical ``Fraction``s to a cold ``AttributionSession`` on the
  final snapshot (property-based, over the catalog and every exact backend);
* a delta fact outside a query's lineage support leaves its cached values
  valid — the refresh reports ``recomputed=False`` and still matches cold;
* ``DiskStore`` treats corrupted / truncated / version-mismatched entries as
  misses (recompute, overwrite), never crashes, and artifacts are reused
  across processes.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AttributionSession, ConfigError, EngineConfig
from repro.data import PartitionedDatabase, atom, fact, var
from repro.engine import SVCEngine, clear_engine_cache
from repro.experiments import full_catalog, q_rst, sparse_endogenous_instance
from repro.queries import ConjunctiveQuery, UnionOfConjunctiveQueries, cq
from repro.workspace import (
    ARTIFACT_SCHEMA_VERSION,
    AttributionWorkspace,
    DiskStore,
    MemoryStore,
    circuit_key,
    lineage_key,
    plan_key,
)
from repro.workspace.results import WorkspaceDelta

X, Y = var("x"), var("y")
Q_RST = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")
Q_HIER = cq(atom("R", X), atom("S", X, Y), name="q_hier")

CATALOG = full_catalog()
HOM_CLOSED = [e for e in CATALOG if e.query.is_hom_closed]


def small_rst_pdb() -> PartitionedDatabase:
    return PartitionedDatabase(
        [fact("S", "a", "b"), fact("S", "a", "c"), fact("R", "a")],
        [fact("T", "b"), fact("T", "c")])


def _assert_bitwise(left: dict, right: dict) -> None:
    assert left == right
    for f, value in left.items():
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            right[f].numerator, right[f].denominator)


# ---------------------------------------------------------------------------
# Content keys
# ---------------------------------------------------------------------------

class TestContentKeys:
    def test_keys_are_stable_across_equal_objects(self):
        pdb_a, pdb_b = small_rst_pdb(), small_rst_pdb()
        q_a = cq(atom("R", X), atom("S", X, Y), atom("T", Y), name="q_RST")
        assert lineage_key(q_a, pdb_a) == lineage_key(Q_RST, pdb_b)
        assert plan_key(q_a) == plan_key(Q_RST)

    def test_keys_distinguish_content(self):
        pdb = small_rst_pdb()
        assert lineage_key(Q_RST, pdb) != lineage_key(Q_HIER, pdb)
        moved = pdb.with_endogenous([fact("S", "a", "d")])
        assert lineage_key(Q_RST, pdb) != lineage_key(Q_RST, moved)
        # Partition moves change database content text too.
        repartitioned = pdb.move_to_exogenous([fact("R", "a")])
        assert lineage_key(Q_RST, pdb) != lineage_key(Q_RST, repartitioned)

    def test_circuit_key_depends_on_lineage_not_database(self):
        pdb = small_rst_pdb()
        engine = SVCEngine(Q_RST, pdb, method="circuit")
        engine.all_values()
        lineage = engine.lineage()
        # A snapshot extended by a fact outside the query's vocabulary has a
        # different database text but the identical lineage -> same circuit key.
        padded = pdb.with_exogenous([fact("Zeta", "z")])
        padded_lineage = SVCEngine(Q_RST, padded, method="circuit").lineage()
        assert circuit_key(Q_RST, lineage) == circuit_key(Q_RST, padded_lineage)

    def test_keys_are_injective_for_comma_constants(self):
        # str(Fact) renders R("a, b") and R("a", "b") identically; the content
        # texts must not (CSV fields contain commas).
        tricky = PartitionedDatabase([fact("R", "a, b")], [])
        plain = PartitionedDatabase([fact("R", "a", "b")], [])
        assert str(next(iter(tricky.endogenous))) == str(next(iter(plain.endogenous)))
        assert lineage_key(Q_RST, tricky) != lineage_key(Q_RST, plain)

    def test_query_keys_distinguish_comma_constants(self):
        q_tricky = cq(atom("R", "a, b"), name="q")
        q_plain = cq(atom("R", "a", "b"), name="q")
        assert plan_key(q_tricky) != plan_key(q_plain)

    def test_kinds_are_disjoint(self):
        pdb = small_rst_pdb()
        lineage = SVCEngine(Q_RST, pdb, method="counting").lineage()
        digests = {plan_key(Q_RST).kind, lineage_key(Q_RST, pdb).kind,
                   circuit_key(Q_RST, lineage).kind}
        assert digests == {"plan", "lineage", "circuit"}


# ---------------------------------------------------------------------------
# MemoryStore
# ---------------------------------------------------------------------------

class TestMemoryStore:
    def test_round_trip_returns_identical_object(self):
        store = MemoryStore()
        key = plan_key(Q_HIER)
        payload = {"anything": 1}
        store.put(key, payload)
        assert store.get(key) is payload
        assert store.stats()["hits"] == 1

    def test_lru_eviction(self):
        store = MemoryStore(max_entries=2)
        keys = [plan_key(Q_HIER), plan_key(Q_RST),
                lineage_key(Q_RST, small_rst_pdb())]
        for i, key in enumerate(keys):
            store.put(key, i)
        assert store.get(keys[0]) is None          # evicted (oldest)
        assert store.get(keys[1]) == 1
        assert store.get(keys[2]) == 2
        assert store.stats()["evictions"] == 1

    def test_get_refreshes_recency(self):
        store = MemoryStore(max_entries=2)
        k1, k2 = plan_key(Q_HIER), plan_key(Q_RST)
        store.put(k1, "a")
        store.put(k2, "b")
        store.get(k1)                              # k2 is now least recent
        store.put(lineage_key(Q_RST, small_rst_pdb()), "c")
        assert store.get(k1) == "a"
        assert store.get(k2) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryStore(max_entries=0)

    def test_cached_reads_only_the_kind_it_accepts(self):
        from repro.workspace.store import cached

        store = MemoryStore()
        key = plan_key(Q_HIER)
        store.put(key, "an older layout")
        assert cached(store, key, dict, lambda: {"built": 1}) == {"built": 1}
        assert store.get(key) == {"built": 1}      # the miss overwrote it
        assert cached(store, key, dict, lambda: {"built": 2}) == {"built": 1}
        assert cached(store, key, dict, lambda: {"built": 3},
                      accept=lambda found: found["built"] > 1) == {"built": 3}
        other = lineage_key(Q_RST, small_rst_pdb())
        assert cached(store, other, dict, lambda: None) is None
        assert store.get(other) is None            # "no artifact" is not stored

        def no_key():
            raise AssertionError("a storeless lookup must not hash content")

        assert cached(None, no_key, dict, lambda: {"built": 4}) == {"built": 4}


# ---------------------------------------------------------------------------
# DiskStore robustness
# ---------------------------------------------------------------------------

class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        key = lineage_key(Q_RST, small_rst_pdb())
        lineage = SVCEngine(Q_RST, small_rst_pdb(), method="counting").lineage()
        store.put(key, lineage)
        fresh = DiskStore(tmp_path)               # a second handle on the dir
        loaded = fresh.get(key)
        assert loaded is not None
        assert loaded.variables == lineage.variables
        assert loaded.dnf.clauses == lineage.dnf.clauses

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get(plan_key(Q_HIER)) is None
        assert store.stats()["misses"] == 1

    def test_corrupted_entry_is_a_miss_then_heals(self, tmp_path):
        store = DiskStore(tmp_path)
        key = plan_key(Q_HIER)
        store.put(key, "payload")
        (tmp_path / key.filename).write_bytes(b"\x80\x04 this is not a pickle")
        assert store.get(key) is None
        assert store.stats()["invalid"] == 1
        store.put(key, "recomputed")              # overwrite after the miss
        assert store.get(key) == "recomputed"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        key = plan_key(Q_HIER)
        store.put(key, list(range(1000)))
        path = tmp_path / key.filename
        path.write_bytes(path.read_bytes()[: 20])
        assert store.get(key) is None
        assert store.stats()["invalid"] == 1

    def test_version_mismatch_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        key = plan_key(Q_HIER)
        blob = pickle.dumps({"version": ARTIFACT_SCHEMA_VERSION + 1,
                             "kind": key.kind, "payload": "stale layout"})
        (tmp_path / key.filename).write_bytes(blob)
        assert store.get(key) is None
        assert store.stats()["invalid"] == 1
        # The stale file was discarded; a recompute-and-put round-trips again.
        store.put(key, "fresh")
        assert store.get(key) == "fresh"

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        key = plan_key(Q_HIER)
        blob = pickle.dumps({"version": ARTIFACT_SCHEMA_VERSION,
                             "kind": "circuit", "payload": "wrong shelf"})
        (tmp_path / key.filename).write_bytes(blob)
        assert store.get(key) is None

    def test_unpicklable_put_is_skipped_not_raised(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put(plan_key(Q_HIER), lambda: None)  # lambdas don't pickle
        assert store.stats()["put_failures"] == 1
        assert store.get(plan_key(Q_HIER)) is None

    def test_engine_recomputes_through_corruption(self, tmp_path):
        """A damaged store never changes results — it only costs a recompute."""
        pdb = small_rst_pdb()
        reference = SVCEngine(Q_RST, pdb, method="circuit").all_values()
        store = DiskStore(tmp_path)
        SVCEngine(Q_RST, pdb, method="circuit", store=store).all_values()
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")
        damaged = DiskStore(tmp_path)
        values = SVCEngine(Q_RST, pdb, method="circuit", store=damaged).all_values()
        _assert_bitwise(values, reference)
        # The damaged entries were overwritten with fresh artifacts.
        healed = DiskStore(tmp_path)
        values = SVCEngine(Q_RST, pdb, method="circuit", store=healed).all_values()
        _assert_bitwise(values, reference)
        assert healed.stats()["hits"] >= 2


# ---------------------------------------------------------------------------
# DiskStore size bound (max_bytes LRU eviction)
# ---------------------------------------------------------------------------

def _distinct_keys(count: int) -> list:
    """Distinct plan keys (distinct queries hash to distinct digests)."""
    keys = []
    for i in range(count):
        query = cq(atom(f"R{i}", X), name=f"q_{i}")
        keys.append(plan_key(query))
    return keys


class TestDiskStoreEviction:
    def test_unbounded_by_default(self, tmp_path):
        store = DiskStore(tmp_path)
        for key in _distinct_keys(10):
            store.put(key, "x" * 4096)
        assert len(store) == 10
        assert store.stats()["evictions"] == 0

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            DiskStore(tmp_path, max_bytes=0)

    def test_put_evicts_oldest_first(self, tmp_path):
        keys = _distinct_keys(6)
        # Each entry is ~4 KiB; a 20 KiB budget holds at most 4–5 of them.
        store = DiskStore(tmp_path, max_bytes=20 * 1024)
        for i, key in enumerate(keys):
            store.put(key, "x" * 4096)
            os.utime(tmp_path / key.filename, (1_000_000 + i, 1_000_000 + i))
        assert store.total_bytes() <= 20 * 1024
        assert store.stats()["evictions"] >= 1
        # The oldest entries went first; the newest survived.
        assert store.get(keys[0]) is None
        assert store.get(keys[-1]) is not None

    def test_get_hit_refreshes_recency(self, tmp_path):
        keys = _distinct_keys(6)
        store = DiskStore(tmp_path, max_bytes=20 * 1024)
        for i, key in enumerate(keys[:4]):
            store.put(key, "x" * 4096)
            os.utime(tmp_path / key.filename, (1_000_000 + i, 1_000_000 + i))
        assert store.get(keys[0]) is not None  # touch: now most recently used
        store.put(keys[4], "x" * 4096)
        store.put(keys[5], "x" * 4096)
        # keys[1] (the coldest untouched entry) was evicted before keys[0].
        assert store.get(keys[0]) is not None
        assert store.get(keys[1]) is None

    def test_store_stats_surface(self, tmp_path):
        store = DiskStore(tmp_path, max_bytes=1 << 20)
        store.put(plan_key(Q_HIER), "payload")
        surface = store.store_stats()
        assert surface["entries"] == 1
        assert surface["total_bytes"] > 0
        assert surface["max_bytes"] == 1 << 20
        assert surface["stores"] == 1
        memory = MemoryStore(max_entries=7)
        assert memory.store_stats()["max_entries"] == 7

    def test_bounded_store_stays_bounded_under_refresh_churn(self, tmp_path):
        """Workspace refresh churn cannot grow a bounded store past its budget."""
        budget = 32 * 1024
        store = DiskStore(tmp_path, max_bytes=budget)
        pdb = small_rst_pdb()
        ws = AttributionWorkspace(pdb, store=store)
        ws.register("rst", Q_RST)
        reference = AttributionSession(Q_RST, pdb).values()
        _assert_bitwise(ws.values("rst"), reference)
        for i in range(8):
            # In-vocabulary churn: every round invalidates and re-attributes,
            # pushing fresh plans / lineages / circuits through the store.
            ws.insert(fact("S", "a", f"n{i}"))
            ws.refresh()
            assert store.total_bytes() <= budget
        assert ws.store_stats()["max_bytes"] == budget
        # Values after churn still match a cold session on the final snapshot.
        _assert_bitwise(ws.values("rst"),
                        AttributionSession(Q_RST, ws.pdb).values())


# ---------------------------------------------------------------------------
# Store thread-safety (the serving tier hammers one store from many threads)
# ---------------------------------------------------------------------------

class TestStoreThreadSafety:
    def test_two_threads_hammering_one_disk_store(self, tmp_path):
        """Concurrent put/get under a tight budget: evictions race, nothing breaks.

        Regression for the serving tier: two executor threads share one
        ``DiskStore`` whose budget forces evictions *while* the other thread
        reads — vanished files must read as plain misses and the counters
        must stay consistent (no lost updates from unguarded ``+=``).
        """
        import threading

        rounds, workers = 60, 2
        store = DiskStore(tmp_path, max_bytes=16 * 1024)  # ~4 entries of 4 KiB
        keys = _distinct_keys(8)
        errors = []

        def hammer(seed):
            try:
                for i in range(rounds):
                    key = keys[(seed + i) % len(keys)]
                    store.put(key, "x" * 4096)
                    value = store.get(keys[(seed + i + 3) % len(keys)])
                    assert value is None or value == "x" * 4096
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = store.stats()
        # Exact counter conservation despite the concurrency: every get was
        # a hit or a miss, every put was stored or failed.
        assert stats["hits"] + stats["misses"] == workers * rounds
        assert stats["stores"] + stats["put_failures"] == workers * rounds
        assert store.total_bytes() <= 16 * 1024

    def test_two_threads_hammering_one_memory_store(self):
        import threading

        rounds, workers = 500, 2
        store = MemoryStore(max_entries=4)
        keys = _distinct_keys(8)
        errors = []

        def hammer(seed):
            try:
                for i in range(rounds):
                    store.put(keys[(seed + i) % len(keys)], i)
                    store.get(keys[(seed + i + 5) % len(keys)])
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = store.stats()
        assert stats["hits"] + stats["misses"] == workers * rounds
        assert stats["stores"] == workers * rounds
        assert len(store) <= 4

    def test_entry_vanishing_mid_scan_is_tolerated(self, tmp_path):
        """Another process evicting the shared directory never breaks a scan."""
        store = DiskStore(tmp_path, max_bytes=64 * 1024)
        keys = _distinct_keys(4)
        for key in keys:
            store.put(key, "x" * 1024)
        # Simulate a concurrent evictor: delete files behind the store's back.
        for key in keys[:2]:
            (tmp_path / key.filename).unlink()
        assert store.get(keys[0]) is None          # a plain miss, no crash
        assert store.get(keys[2]) == "x" * 1024
        assert store.total_bytes() > 0             # scan skipped the ghosts
        store.put(keys[0], "y")                    # eviction pass still works
        assert store.get(keys[0]) == "y"


# ---------------------------------------------------------------------------
# Engine / session store threading
# ---------------------------------------------------------------------------

class TestEngineStoreThreading:
    @pytest.mark.parametrize("make_store", [MemoryStore, None],
                             ids=["memory", "disk"])
    def test_values_identical_fresh_cached_and_stored(self, tmp_path, make_store):
        store = make_store() if make_store else DiskStore(tmp_path)
        pdb = small_rst_pdb()
        fresh = SVCEngine(Q_RST, pdb, method="circuit").all_values()
        first = SVCEngine(Q_RST, pdb, method="circuit", store=store).all_values()
        second = SVCEngine(Q_RST, pdb, method="circuit", store=store).all_values()
        _assert_bitwise(first, fresh)
        _assert_bitwise(second, fresh)
        assert store.stats()["hits"] >= 2          # lineage + circuit reused

    def test_lineage_shared_by_identity_through_memory_store(self):
        store = MemoryStore()
        pdb = small_rst_pdb()
        e1 = SVCEngine(Q_RST, pdb, method="counting", store=store)
        e1.all_values()
        e2 = SVCEngine(Q_RST, pdb, method="counting", store=store)
        e2.all_values()
        assert e2.lineage() is e1.lineage()

    def test_safe_plan_reused_from_store(self, tmp_path):
        store = DiskStore(tmp_path)
        pdb = PartitionedDatabase([fact("S", "a", "b")], [fact("R", "a")])
        first = SVCEngine(Q_HIER, pdb, method="safe", store=store).all_values()
        reloaded = DiskStore(tmp_path)
        second = SVCEngine(Q_HIER, pdb, method="safe", store=reloaded).all_values()
        _assert_bitwise(second, first)
        assert reloaded.stats()["hits"] >= 1

    def test_oversized_stored_circuit_is_ignored(self, tmp_path):
        pdb = small_rst_pdb()
        store = DiskStore(tmp_path)
        big = SVCEngine(Q_RST, pdb, method="circuit", store=store)
        big.all_values()                           # stores the compiled circuit
        small = SVCEngine(Q_RST, pdb, method="circuit", store=store,
                          circuit_node_budget=1)
        assert small.backend() == "counting"       # budget fallback, not reuse
        _assert_bitwise(small.all_values(), big.all_values())

    def test_auto_dispatched_plan_reaches_the_store(self, tmp_path):
        # auto compiles a safe plan only when the circuit blows its node
        # budget; that plan must still be put, so a store-warmed process
        # skips the compile.
        from repro.engine import get_engine

        store = DiskStore(tmp_path)
        clear_engine_cache()
        pdb = PartitionedDatabase([fact("S", "a", "b")], [fact("R", "a")])
        engine = get_engine(Q_HIER, pdb, store=store, circuit_node_budget=1,
                            shard="fact")               # auto -> circuit -> safe
        assert engine.backend() == "safe"
        assert DiskStore(tmp_path).get(plan_key(Q_HIER)) is not None

    def test_session_threads_store(self, tmp_path):
        store = DiskStore(tmp_path)
        clear_engine_cache()
        pdb = small_rst_pdb()
        first = AttributionSession(Q_RST, pdb, store=store).values()
        clear_engine_cache()                       # force a fresh engine
        reloaded = DiskStore(tmp_path)
        second = AttributionSession(Q_RST, pdb, store=reloaded).values()
        _assert_bitwise(second, first)
        assert reloaded.stats()["hits"] >= 1


# ---------------------------------------------------------------------------
# Workspace basics
# ---------------------------------------------------------------------------

class TestWorkspaceBasics:
    def test_requires_partitioned_database(self):
        with pytest.raises(ConfigError):
            AttributionWorkspace({fact("R", "a")})

    def test_rejects_sampled_config(self):
        with pytest.raises(ConfigError, match="exact"):
            AttributionWorkspace(small_rst_pdb(),
                                 config=EngineConfig(method="sampled"))

    def test_on_hard_coerced_to_exact(self):
        ws = AttributionWorkspace(small_rst_pdb(),
                                  config=EngineConfig(on_hard="sample"))
        assert ws.config.on_hard == "exact"

    def test_register_twice_same_query_is_noop(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.register("q", cq(atom("R", X), atom("S", X, Y), atom("T", Y),
                            name="q_RST"))
        with pytest.raises(ValueError, match="already registered"):
            ws.register("q", Q_HIER)
        ws.unregister("q")
        ws.register("q", Q_HIER)

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError):
            AttributionWorkspace(small_rst_pdb()).unregister("ghost")

    def test_delta_ops_produce_new_immutable_snapshots(self):
        original = small_rst_pdb()
        ws = AttributionWorkspace(original)
        snap1 = ws.insert(fact("S", "a", "d"))
        assert fact("S", "a", "d") not in original.all_facts
        assert fact("S", "a", "d") in snap1.endogenous
        snap2 = ws.make_exogenous(fact("S", "a", "d"))
        assert fact("S", "a", "d") in snap2.exogenous
        snap3 = ws.make_endogenous(fact("S", "a", "d"))
        assert fact("S", "a", "d") in snap3.endogenous
        snap4 = ws.remove(fact("S", "a", "d"))
        assert fact("S", "a", "d") not in snap4.all_facts
        assert ws.pdb is snap4
        assert [d.op for d in ws.pending_deltas()] == [
            "insert", "make_exogenous", "make_endogenous", "remove"]

    def test_delta_validation(self):
        ws = AttributionWorkspace(small_rst_pdb())
        with pytest.raises(ValueError):
            ws.insert(fact("R", "a"))              # already present
        with pytest.raises(ValueError):
            ws.remove(fact("R", "nope"))           # absent
        with pytest.raises(ValueError):
            ws.make_exogenous(fact("T", "b"))      # already exogenous
        with pytest.raises(ValueError):
            ws.make_endogenous(fact("R", "a"))     # already endogenous
        assert ws.pending_deltas() == ()           # failed ops queue nothing

    def test_refresh_consumes_pending_deltas(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.insert(fact("S", "a", "d"))
        result = ws.refresh()
        assert [d.op for d in result.applied] == ["insert"]
        assert ws.pending_deltas() == ()
        again = ws.refresh()
        assert again.applied == ()
        assert again["q"].recomputed is False
        assert again["q"].unchanged

    def test_failed_refresh_keeps_deltas_pending(self):
        # Regression: a refresh that raises midway must not consume the
        # pending batch, or a retry would serve stale pre-delta values.
        from repro.errors import UnsafeQueryError

        ws = AttributionWorkspace(small_rst_pdb(),
                                  config=EngineConfig(method="safe"))
        ws.register("b", Q_HIER)                   # safe: attributable
        ws.refresh()
        ws.remove(fact("S", "a", "b"))             # inside Q_HIER's support
        ws.register("a", Q_RST)                    # unsafe under method="safe"
        with pytest.raises(UnsafeQueryError):
            ws.refresh()                           # "a" (sorted first) raises
        assert [d.op for d in ws.pending_deltas()] == ["remove"]
        ws.unregister("a")
        delta = ws.refresh()["b"]                  # retry sees the delta
        assert delta.recomputed is True
        _assert_bitwise(ws.values("b"),
                        AttributionSession(Q_HIER, ws.pdb,
                                           EngineConfig(method="safe")).values())

    def test_values_auto_refreshes(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        values = ws.values("q")                    # initial refresh implied
        _assert_bitwise(values, AttributionSession(Q_RST, ws.pdb).values())
        ws.remove(fact("S", "a", "b"))
        _assert_bitwise(ws.values("q"),
                        AttributionSession(Q_RST, ws.pdb).values())
        with pytest.raises(KeyError):
            ws.values("ghost")


# ---------------------------------------------------------------------------
# Lineage-support-aware invalidation
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_out_of_vocabulary_insert_reuses_cached_values(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.refresh()
        ws.insert(fact("Audit", "x1"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is False
        assert delta.new_null_players == frozenset({fact("Audit", "x1")})
        # Parity: the reused values ARE the cold values on the new snapshot.
        _assert_bitwise(ws.values("q"), AttributionSession(Q_RST, ws.pdb).values())

    def test_out_of_support_removal_reuses_cached_values(self):
        # S(zz, zz) matches the query's vocabulary but joins no support
        # (no R(zz) / T(zz) exist), so touching it cannot move any value.
        pdb = small_rst_pdb().with_endogenous([fact("S", "zz", "zz")])
        ws = AttributionWorkspace(pdb)
        ws.register("q", Q_RST)
        assert ws.values("q")[fact("S", "zz", "zz")] == 0
        ws.remove(fact("S", "zz", "zz"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is False
        assert delta.dropped_null_players == frozenset({fact("S", "zz", "zz")})
        _assert_bitwise(ws.values("q"), AttributionSession(Q_RST, ws.pdb).values())

    def test_in_support_removal_recomputes(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.refresh()
        ws.remove(fact("S", "a", "b"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is True
        _assert_bitwise(ws.values("q"), AttributionSession(Q_RST, ws.pdb).values())

    def test_in_vocabulary_insert_recomputes(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.refresh()
        ws.insert(fact("S", "a", "d"))             # could create new supports
        assert ws.refresh()["q"].recomputed is True
        _assert_bitwise(ws.values("q"), AttributionSession(Q_RST, ws.pdb).values())

    def test_partition_move_of_support_fact_recomputes(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        before = ws.values("q")
        ws.make_exogenous(fact("S", "a", "b"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is True
        after = ws.values("q")
        assert fact("S", "a", "b") not in after
        assert after != before
        _assert_bitwise(after, AttributionSession(Q_RST, ws.pdb).values())

    def test_partition_move_of_dummy_reuses(self):
        pdb = small_rst_pdb().with_exogenous([fact("S", "zz", "zz")])
        ws = AttributionWorkspace(pdb)
        ws.register("q", Q_RST)
        ws.refresh()
        ws.make_endogenous(fact("S", "zz", "zz"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is False
        assert ws.values("q")[fact("S", "zz", "zz")] == 0
        _assert_bitwise(ws.values("q"), AttributionSession(Q_RST, ws.pdb).values())

    def test_negation_queries_are_conservative(self):
        from repro.queries import cq_with_negation

        qneg = cq_with_negation([atom("R", X), atom("S", X, Y)],
                                [atom("N", X, Y)], name="qneg")
        pdb = PartitionedDatabase([fact("S", "a", "b"), fact("N", "a", "b")],
                                  [fact("R", "a")])
        ws = AttributionWorkspace(pdb)
        ws.register("q", qneg)
        ws.refresh()
        # Removing a negated-relation fact can *satisfy* the query: the
        # support screen must not claim reuse (no support characterisation).
        ws.remove(fact("N", "a", "b"))
        delta = ws.refresh()["q"]
        assert delta.recomputed is True
        _assert_bitwise(ws.values("q"),
                        AttributionSession(qneg, ws.pdb,
                                           EngineConfig(on_hard="exact")).values())
        # But a relation the query never inspects still short-circuits.
        ws.insert(fact("Audit", "x"))
        assert ws.refresh()["q"].recomputed is False
        _assert_bitwise(ws.values("q"),
                        AttributionSession(qneg, ws.pdb,
                                           EngineConfig(on_hard="exact")).values())

    def test_multiple_queries_invalidate_independently(self):
        pdb = PartitionedDatabase(
            [fact("S", "a", "b"), fact("U", "c", "d")],
            [fact("R", "a"), fact("T", "b")])
        ws = AttributionWorkspace(pdb)
        ws.register("rst", Q_RST)
        q_u = cq(atom("U", X, Y), name="q_u")
        ws.register("u", q_u)
        ws.refresh()
        ws.remove(fact("U", "c", "d"))             # touches only q_u
        result = ws.refresh()
        assert result.recomputed == ("u",)
        assert result.reused == ("rst",)
        _assert_bitwise(ws.values("rst"), AttributionSession(Q_RST, ws.pdb).values())
        _assert_bitwise(ws.values("u"), AttributionSession(q_u, ws.pdb).values())


# ---------------------------------------------------------------------------
# Typed delta results
# ---------------------------------------------------------------------------

class TestDeltaResults:
    def test_rank_moves_and_value_changes(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        ws.refresh()
        ws.remove(fact("S", "a", "b"))
        delta = ws.refresh()["q"]
        moved = {str(m.fact): (m.old_rank, m.new_rank) for m in delta.rank_moves}
        assert moved["S(a, b)"][1] is None         # left the ranking
        changed = {str(c.fact): (c.old, c.new) for c in delta.changed_values}
        assert changed["S(a, b)"][1] is None
        assert all(isinstance(v, Fraction) for _, v in delta.ranking)
        assert delta.values == dict(delta.ranking)

    def test_refresh_result_shape(self):
        ws = AttributionWorkspace(small_rst_pdb())
        ws.register("q", Q_RST)
        result = ws.refresh()
        assert [d.name for d in result] == ["q"]
        with pytest.raises(KeyError):
            result["ghost"]
        payload = result.to_json_dict()
        assert payload["recomputed"] == ["q"]
        assert payload["deltas"][0]["name"] == "q"
        import json

        assert json.loads(result.to_json())["reused"] == []

    def test_workspace_delta_str_and_json(self):
        delta = WorkspaceDelta("insert", fact("S", "a", "b"), True)
        assert "Dn" in str(delta)
        # The JSON carries the display string AND the lossless structure
        # (str(Fact) is ambiguous for constants containing ", ").
        assert delta.to_json_dict() == {"op": "insert", "fact": "S(a, b)",
                                        "relation": "S", "args": ["a", "b"],
                                        "endogenous": True}

    def test_support_is_cached_in_the_store(self):
        store = MemoryStore()
        ws = AttributionWorkspace(small_rst_pdb(), store=store)
        ws.register("q", Q_RST)
        ws.refresh()
        from repro.workspace import support_key

        assert isinstance(store.get(support_key(Q_RST, ws.pdb)), frozenset)
        # A second workspace over the same snapshot skips the enumeration and
        # still screens deltas correctly.
        ws2 = AttributionWorkspace(ws.pdb, store=store)
        ws2.register("q", Q_RST)
        ws2.refresh()
        ws2.insert(fact("Audit", "x"))
        assert ws2.refresh()["q"].recomputed is False
        _assert_bitwise(ws2.values("q"),
                        AttributionSession(Q_RST, ws2.pdb).values())


# ---------------------------------------------------------------------------
# Property-based incremental parity (the acceptance criterion)
# ---------------------------------------------------------------------------

def _relation_arities(query) -> dict[str, int]:
    if isinstance(query, ConjunctiveQuery):
        return {a.relation: a.arity for a in query.atoms}
    if isinstance(query, UnionOfConjunctiveQueries):
        arities: dict[str, int] = {}
        for disjunct in query.disjuncts:
            arities.update(_relation_arities(disjunct))
        return arities
    return {name: 2 for name in query.relation_names()}


@st.composite
def delta_scripts(draw, entries):
    """A catalog query, a seed database, and a random sequence of delta ops."""
    entry = draw(st.sampled_from(entries))
    arities = _relation_arities(entry.query)
    arities["Zeta"] = 1                            # outside every vocabulary
    relations = sorted(arities)
    constants = ["a", "b", "c"]

    def draw_fact():
        relation = draw(st.sampled_from(relations))
        args = [draw(st.sampled_from(constants))
                for _ in range(arities[relation])]
        return fact(relation, *args)

    endogenous, exogenous = set(), set()
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        f = draw_fact()
        if f in endogenous or f in exogenous:
            continue
        (endogenous if draw(st.booleans()) else exogenous).add(f)
    script = [(draw(st.sampled_from(["insert", "insert_exo", "remove",
                                     "make_exogenous", "make_endogenous"])),
               draw_fact())
              for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    refresh_each = draw(st.booleans())
    return entry, PartitionedDatabase(endogenous, exogenous), script, refresh_each


def _run_script(ws: AttributionWorkspace, script, refresh_each: bool) -> None:
    for op, f in script:
        try:
            if op == "insert":
                ws.insert(f)
            elif op == "insert_exo":
                ws.insert(f, exogenous=True)
            elif op == "remove":
                ws.remove(f)
            elif op == "make_exogenous":
                ws.make_exogenous(f)
            else:
                ws.make_endogenous(f)
        except ValueError:
            continue                               # infeasible op: skip
        if refresh_each:
            ws.refresh()
    ws.refresh()


class TestIncrementalParity:
    """Bitwise parity with a cold session after any random delta sequence."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_scripts(CATALOG))
    def test_parity_full_catalog_auto(self, case):
        entry, pdb, script, refresh_each = case
        ws = AttributionWorkspace(pdb)
        ws.register("q", entry.query)
        _run_script(ws, script, refresh_each)
        cold = AttributionSession(entry.query, ws.pdb,
                                  EngineConfig(on_hard="exact")).values()
        _assert_bitwise(ws.values("q"), cold)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(delta_scripts(CATALOG))
    def test_parity_full_catalog_brute(self, case):
        entry, pdb, script, refresh_each = case
        config = EngineConfig(method="brute")
        ws = AttributionWorkspace(pdb, config=config)
        ws.register("q", entry.query)
        _run_script(ws, script, refresh_each)
        cold = AttributionSession(entry.query, ws.pdb, config).values()
        _assert_bitwise(ws.values("q"), cold)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @pytest.mark.parametrize("method", ["circuit", "counting"])
    @given(case=delta_scripts(HOM_CLOSED))
    def test_parity_hom_closed_backends(self, method, case):
        entry, pdb, script, refresh_each = case
        config = EngineConfig(method=method)
        ws = AttributionWorkspace(pdb, config=config, store=MemoryStore())
        ws.register("q", entry.query)
        _run_script(ws, script, refresh_each)
        cold = AttributionSession(entry.query, ws.pdb, config).values()
        _assert_bitwise(ws.values("q"), cold)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=delta_scripts(HOM_CLOSED))
    def test_parity_with_disk_store(self, case, tmp_path_factory):
        entry, pdb, script, refresh_each = case
        store = DiskStore(tmp_path_factory.mktemp("artifacts"))
        ws = AttributionWorkspace(pdb, store=store)
        ws.register("q", entry.query)
        _run_script(ws, script, refresh_each)
        cold = AttributionSession(entry.query, ws.pdb,
                                  EngineConfig(on_hard="exact")).values()
        _assert_bitwise(ws.values("q"), cold)


# ---------------------------------------------------------------------------
# Cross-process artifact reuse
# ---------------------------------------------------------------------------

_CHILD_SCRIPT = """
import json, sys
from repro.engine import SVCEngine
from repro.experiments import q_rst, sparse_endogenous_instance
from repro.workspace import DiskStore

store = DiskStore(sys.argv[1])
pdb = sparse_endogenous_instance(4, 4, 0.5, 3)
engine = SVCEngine(q_rst(), pdb, method="circuit", store=store)
values = engine.all_values()
print(json.dumps({
    "values": {str(f): str(v) for f, v in values.items()},
    "stats": store.stats(),
    "circuit_nodes": engine.circuit_size(),
}))
"""


class TestCrossProcess:
    def test_circuit_round_trips_across_processes(self, tmp_path):
        """A fresh process reuses the parent's stored lineage and circuit."""
        store = DiskStore(tmp_path)
        pdb = sparse_endogenous_instance(4, 4, 0.5, 3)
        engine = SVCEngine(q_rst(), pdb, method="circuit", store=store)
        parent_values = engine.all_values()
        assert store.stats()["stores"] == 2        # lineage + circuit written

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        import json

        payload = json.loads(proc.stdout)
        # The child hit the store for both artifacts and compiled nothing new.
        assert payload["stats"]["hits"] == 2
        assert payload["stats"]["misses"] == 0
        assert payload["circuit_nodes"] == engine.circuit_size()
        assert payload["values"] == {str(f): str(v)
                                     for f, v in parent_values.items()}
