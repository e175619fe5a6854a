"""Delta-maintained lineages and circuit patching (the incremental subsystem).

An in-support delta no longer means "recompute everything": the minimal
support family is kept as a materialised view and advanced clause-by-clause
(:mod:`repro.incremental.delta`, :mod:`repro.incremental.lineage`), and the
attribution is re-priced island-by-island against the artifact store, with
changed islands recompiled *seeded* from the previous circuit
(:mod:`repro.incremental.patch`).  The workspace's ``refresh()`` drives this
path by default for eligible queries and falls back to the cold recompute —
which doubles as the parity oracle — whenever anything is off, recording the
decision in each entry's ``refresh_reason``.
"""

from .delta import (
    DELTA_OPS,
    SnapshotDelta,
    SupportDiff,
    apply_delta,
    diff_supports,
    supports_through,
)
from .lineage import MaintainedLineage
from .patch import (
    IslandPairs,
    PatchResult,
    PatchStats,
    patch_attribution,
)

__all__ = [
    "DELTA_OPS",
    "IslandPairs",
    "MaintainedLineage",
    "PatchResult",
    "PatchStats",
    "SnapshotDelta",
    "SupportDiff",
    "apply_delta",
    "diff_supports",
    "patch_attribution",
    "supports_through",
]
