"""Cross-layer heap auditor (the reproduction's sanitizer).

The paper's whole design rests on four views of failure state agreeing:
hardware ECC state, the OS failure table, the runtime's per-block line
marks, and the clustering redirection maps. This package verifies that
agreement — one checker per layer (:mod:`.invariants`), a coordinator
that runs them at configurable points (:mod:`.audit`), randomized
fault-injection campaigns (:mod:`.campaign`), and the slow reference
oracles the cached hot-path kernels are checked against
(:mod:`.oracles`).

Enable in-run auditing with ``--verify-heap {off,gc,upcall,paranoid}``
or the ``REPRO_VERIFY`` environment variable; run a standalone campaign
with ``python -m repro check``.
"""

from .audit import (
    PARANOID_ALLOC_INTERVAL,
    VERIFY_LEVELS,
    AuditReport,
    HeapAuditor,
    Violation,
    check_verify_level,
)
from .campaign import CampaignResult, CampaignRun, run_campaign
from .invariants import ALL_CHECKERS, audit_vm, run_all_checkers

__all__ = [
    "ALL_CHECKERS",
    "AuditReport",
    "CampaignResult",
    "CampaignRun",
    "HeapAuditor",
    "PARANOID_ALLOC_INTERVAL",
    "VERIFY_LEVELS",
    "Violation",
    "audit_vm",
    "check_verify_level",
    "run_all_checkers",
    "run_campaign",
]
