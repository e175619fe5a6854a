"""Tests for the hierarchy test and the connectivity analyses."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import (
    connected_components_of_cq,
    find_non_hierarchical_witness,
    is_connected_cq,
    is_connected_query,
    is_hierarchical,
    is_hierarchical_atoms,
    is_variable_connected_cq,
    is_variable_connected_query,
    maximal_variable_connected_subquery,
    non_hierarchical_witness,
    variable_connected_components_of_cq,
)
from repro.data import atom, var
from repro.queries import cq, cq_with_negation, rpq, ucq

X, Y, Z, W = var("x"), var("y"), var("z"), var("w")


class TestHierarchy:
    def test_q_rst_is_not_hierarchical(self, q_rst):
        assert not is_hierarchical(q_rst)

    def test_witness_structure(self, q_rst):
        witness = non_hierarchical_witness(q_rst)
        assert witness is not None
        assert witness.x in witness.atom_x.variables()
        assert witness.x in witness.atom_xy.variables()
        assert witness.y in witness.atom_xy.variables()
        assert witness.y in witness.atom_y.variables()
        assert witness.y not in witness.atom_x.variables()
        assert witness.x not in witness.atom_y.variables()

    def test_q_hier_is_hierarchical(self, q_hier):
        assert is_hierarchical(q_hier)
        assert non_hierarchical_witness(q_hier) is None

    def test_single_atom_is_hierarchical(self):
        assert is_hierarchical(cq(atom("S", X, Y)))

    def test_disjoint_variables_are_hierarchical(self):
        assert is_hierarchical(cq(atom("R", X), atom("T", Y)))

    def test_negation_atoms_count(self):
        hierarchical = cq_with_negation([atom("R", X), atom("S", X, Y)], [atom("N", X, Y)])
        hard = cq_with_negation([atom("A", X), atom("B", Y)], [atom("S", X, Y)])
        assert is_hierarchical(hierarchical)
        assert not is_hierarchical(hard)

    def test_ucq_hierarchy_checks_every_disjunct(self, q_rst, q_hier):
        assert is_hierarchical(ucq(q_hier, cq(atom("T", Z))))
        assert not is_hierarchical(ucq(q_hier, q_rst))

    def test_atoms_level_api(self, q_rst):
        assert not is_hierarchical_atoms(q_rst.atoms)
        assert find_non_hierarchical_witness(q_rst.atoms) is not None


class TestConnectivity:
    def test_connected_cq(self, q_rst):
        assert is_connected_cq(q_rst)

    def test_disconnected_cq(self, q_decomposable):
        assert not is_connected_cq(q_decomposable)

    def test_core_is_used_for_connectivity(self):
        # S(x,y) ∧ T(z,w) ∧ S(x,w) is disconnected as written? No — the third atom joins them;
        # but S(x,y) ∧ S(z,w) has a core of one atom, hence is connected as a query.
        q = cq(atom("S", X, Y), atom("S", Z, W))
        assert is_connected_cq(q)

    def test_variable_connected_with_constants(self):
        # Connected only through the constant "a": not variable-connected.
        q = cq(atom("A", X, "a"), atom("B", "a", Y))
        assert not is_variable_connected_cq(q)
        assert is_variable_connected_cq(cq(atom("A", X, Y), atom("B", Y, "a")))

    def test_components_of_cq(self, q_decomposable):
        components = connected_components_of_cq(q_decomposable)
        assert len(components) == 2

    def test_variable_connected_components(self):
        q = cq(atom("R", X), atom("S", X, Y), atom("U", Z, W))
        components = variable_connected_components_of_cq(q)
        assert sorted(len(c.atoms) for c in components) == [1, 2]

    def test_maximal_variable_connected_prefers_non_hierarchical(self):
        q = cq(atom("R", X), atom("S", X, Y), atom("T", Y), atom("U", Z, W))
        chosen, rest = maximal_variable_connected_subquery(q)
        assert chosen.relation_names() == {"R", "S", "T"}
        assert rest is not None and rest.relation_names() == {"U"}

    def test_maximal_variable_connected_whole_query(self, q_rst):
        chosen, rest = maximal_variable_connected_subquery(q_rst)
        assert rest is None and chosen.relation_names() == {"R", "S", "T"}

    def test_rpq_is_connected(self):
        assert is_connected_query(rpq("A B C", "a", "b"))

    def test_connected_query_for_ucq(self, q_rst, q_hier, q_decomposable):
        assert is_connected_query(ucq(q_rst, q_hier))
        assert not is_connected_query(q_decomposable)

    def test_variable_connected_query(self, q_rst):
        assert is_variable_connected_query(q_rst)
        assert not is_variable_connected_query(cq(atom("A", X, "a"), atom("B", "a", Y)))


class TestLazyGraphLibrary:
    def test_import_repro_does_not_load_networkx(self):
        """networkx is imported only by the functions that build graphs, so a
        plain ``import repro`` (every process's start-up) does not pay for it."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = "import sys, repro; print('networkx' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
