"""The maximum Shapley value problem (Section 6.3).

``max-SVC_q`` asks, given a partitioned database, for a fact of maximum
Shapley value together with that value.  Lemma 6.3 shows that in a monotone
binary game any player that is a generalized support on its own attains the
maximum; Proposition 6.2 uses this to adapt the reductions so that they only
ever query the oracle on such a fact, making ``max-SVC`` at least as hard as
``FGMC`` for the covered query classes.
"""

from __future__ import annotations

from fractions import Fraction

from ..data.atoms import Fact
from ..data.database import PartitionedDatabase
from ..engine.svc_engine import get_engine
from ..queries.base import BooleanQuery
from .svc import SVCMethod


def singleton_support_facts(query: BooleanQuery, pdb: PartitionedDatabase) -> frozenset[Fact]:
    """Endogenous facts that are generalized supports on their own.

    By Lemma 6.3 these facts always attain the maximum Shapley value (when the
    exogenous part does not already satisfy the query).
    """
    if query.evaluate(pdb.exogenous):
        return frozenset()
    return frozenset(f for f in pdb.endogenous
                     if query.evaluate(pdb.exogenous | {f}))


def max_shapley_value_with_shortcut(query: BooleanQuery, pdb: PartitionedDatabase,
                                    method: SVCMethod = "auto") -> tuple[Fact, Fraction]:
    """``max-SVC_q`` using the Lemma 6.3 shortcut when it applies.

    If some endogenous fact is a generalized support on its own, its Shapley
    value is maximal, so a single SVC call suffices; otherwise all facts are
    evaluated.
    """
    shortcut = singleton_support_facts(query, pdb)
    if shortcut:
        fact = min(shortcut)
        return fact, get_engine(query, pdb, method).value_of(fact)
    return get_engine(query, pdb, method).max_value()
