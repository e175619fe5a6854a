"""Tests for the term and atom layer (repro.data.terms, repro.data.atoms)."""

import base64
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data import (
    Atom,
    Constant,
    Fact,
    FreshConstantFactory,
    Variable,
    atom,
    atoms_constants,
    atoms_terms,
    atoms_variables,
    const,
    consts,
    fact,
    is_constant,
    is_variable,
    single_atom_c_homomorphisms,
    var,
    variables,
)


class TestTerms:
    def test_const_from_string_and_int(self):
        assert const("a") == Constant("a")
        assert const(3) == Constant("3")

    def test_const_idempotent(self):
        c = const("a")
        assert const(c) is c

    def test_var_builder(self):
        assert var("x") == Variable("x")
        assert var(Variable("x")) == Variable("x")

    def test_consts_and_variables_helpers(self):
        a, b = consts("a", "b")
        x, y = variables("x", "y")
        assert (a.name, b.name) == ("a", "b")
        assert (x.name, y.name) == ("x", "y")

    def test_kind_predicates(self):
        assert is_constant(const("a")) and not is_constant(var("x"))
        assert is_variable(var("x")) and not is_variable(const("a"))

    def test_constant_and_variable_are_distinct(self):
        assert Constant("x") != Variable("x")

    def test_constants_are_hashable_and_ordered(self):
        assert len({const("a"), const("a"), const("b")}) == 2
        assert sorted([const("b"), const("a")]) == [const("a"), const("b")]

    def test_fresh_factory_avoids_given_constants(self):
        factory = FreshConstantFactory({const("_fresh_0")})
        produced = {factory.fresh() for _ in range(5)}
        assert const("_fresh_0") not in produced
        assert len(produced) == 5

    def test_fresh_factory_avoid_updates(self):
        factory = FreshConstantFactory()
        first = factory.fresh()
        factory.avoid({first})
        assert factory.fresh() != first

    def test_fresh_many(self):
        factory = FreshConstantFactory()
        assert len(set(factory.fresh_many(4))) == 4


class TestAtoms:
    def test_atom_builder_infers_facts(self):
        assert isinstance(atom("R", "a", "b"), Fact)
        assert not isinstance(atom("R", var("x")), Fact)

    def test_atom_requires_positive_arity(self):
        with pytest.raises(ValueError):
            Atom("R", ())

    def test_fact_rejects_variables(self):
        with pytest.raises(ValueError):
            Fact("R", (var("x"),))

    def test_fact_equals_equivalent_atom(self):
        ground_atom = Atom("R", (const("a"),))
        ground_fact = Fact("R", (const("a"),))
        assert ground_atom == ground_fact
        assert hash(ground_atom) == hash(ground_fact)

    def test_atoms_are_immutable(self):
        a = atom("R", "a")
        with pytest.raises(AttributeError):
            a.relation = "S"

    def test_constants_and_variables_accessors(self):
        a = atom("R", var("x"), "b")
        assert a.constants() == {const("b")}
        assert a.variables() == {var("x")}
        assert not a.is_ground()

    def test_substitute_produces_fact_when_ground(self):
        a = atom("R", var("x"), "b")
        grounded = a.substitute({var("x"): const("a")})
        assert isinstance(grounded, Fact)
        assert grounded == fact("R", "a", "b")

    def test_substitute_keeps_unmapped_terms(self):
        a = atom("R", var("x"), var("y"))
        partially = a.substitute({var("x"): const("a")})
        assert partially.variables() == {var("y")}

    def test_to_fact_raises_on_non_ground(self):
        with pytest.raises(ValueError):
            atom("R", var("x")).to_fact()

    def test_sorting_is_deterministic(self):
        items = [atom("S", "b"), atom("R", var("x")), atom("R", "a")]
        assert [str(a) for a in sorted(items)] == ["R(a)", "R(?x)", "S(b)"]

    def test_bulk_accessors(self):
        atoms = [atom("R", var("x"), "a"), atom("S", "b")]
        assert atoms_constants(atoms) == {const("a"), const("b")}
        assert atoms_variables(atoms) == {var("x")}
        assert atoms_terms(atoms) == {var("x"), const("a"), const("b")}


#: Facts over string constants, whose hashes depend on the hash seed.
_FACT_ARGS = [("R", "a"), ("S", "a", "b"), ("S", "b", "a"), ("T", "b"),
              ("Edge", "node-1", "7"), ("Keyword", "paper", "Shapley"), ("N", "a", "a")]

_HASH_SEED_CHILD = f"""
import base64, pickle, sys
from repro.data import fact
facts = frozenset(fact(*args) for args in {_FACT_ARGS!r})
if sys.argv[1] == "dump":
    print(hash("repro"), base64.b64encode(pickle.dumps(facts)).decode())
else:
    loaded = pickle.loads(base64.b64decode(sys.stdin.read()))
    print(hash("repro"), loaded == facts and all(f in loaded for f in facts))
"""


def _run_with_hash_seed(seed: str, mode: str, stdin: str = "") -> "tuple[int, str]":
    env = dict(os.environ, PYTHONHASHSEED=seed)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _HASH_SEED_CHILD, mode], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child_hash, payload = proc.stdout.split()
    return int(child_hash), payload


def _dump_under_another_hash_seed() -> "tuple[str, str]":
    """Pickle the facts in a child whose string hashes differ from this
    process's; returns the child's ``PYTHONHASHSEED`` and the pickle."""
    for seed in ("1", "2"):
        child_hash, payload = _run_with_hash_seed(seed, "dump")
        if child_hash != hash("repro"):
            return seed, payload
    raise AssertionError("no seed gave a different string hash")


class TestHashMemo:
    def test_atom_and_fact_with_equal_content_hash_equal(self):
        terms = (const("a"), const("b"))
        ground_atom, ground_fact = Atom("S", terms), Fact("S", terms)
        assert hash(ground_atom) == hash(ground_fact) == hash(("S", terms))
        assert ground_atom in {ground_fact} and ground_fact in {ground_atom}

    def test_facts_pickled_under_another_hash_seed_are_found_here(self):
        """A frozenset of facts pickled in a process with a different hash seed
        still contains every fact once unpickled here: unpickling rebuilds each
        atom, so its hash is recomputed under this process's seed."""
        _, payload = _dump_under_another_hash_seed()
        loaded = pickle.loads(base64.b64decode(payload))
        facts = frozenset(fact(*args) for args in _FACT_ARGS)
        assert loaded == facts
        assert all(f in loaded for f in facts)

    def test_facts_pickled_here_are_found_under_another_hash_seed(self):
        seed, _ = _dump_under_another_hash_seed()
        facts = frozenset(fact(*args) for args in _FACT_ARGS)
        payload = base64.b64encode(pickle.dumps(facts)).decode()
        assert _run_with_hash_seed(seed, "load", payload)[1] == "True"


class TestSingleAtomCHomomorphisms:
    def test_requires_same_relation_and_arity(self):
        assert single_atom_c_homomorphisms(atom("R", "a"), fact("S", "a"), frozenset()) == []
        assert single_atom_c_homomorphisms(atom("R", "a"), fact("R", "a", "b"), frozenset()) == []

    def test_maps_positionwise(self):
        [mapping] = single_atom_c_homomorphisms(atom("R", "c", "d"), fact("R", "a", "b"),
                                                frozenset())
        assert mapping == {const("c"): const("a"), const("d"): const("b")}

    def test_consistency_required(self):
        source = atom("R", "c", "c")
        assert single_atom_c_homomorphisms(source, fact("R", "a", "b"), frozenset()) == []
        assert single_atom_c_homomorphisms(source, fact("R", "a", "a"), frozenset()) != []

    def test_fixed_constants_cannot_move(self):
        source = atom("R", "a")
        assert single_atom_c_homomorphisms(source, fact("R", "b"), frozenset({const("a")})) == []
        assert single_atom_c_homomorphisms(source, fact("R", "a"), frozenset({const("a")})) != []

    def test_leak_style_mapping(self):
        # The q-leak example of Section 4.1: A(b, d) maps onto A(b, a) sending d ↦ a.
        source = atom("A", "b", "d")
        target = fact("A", "b", "a")
        [mapping] = single_atom_c_homomorphisms(source, target, frozenset({const("a")}))
        assert mapping[const("d")] == const("a")
