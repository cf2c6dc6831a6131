"""Live-overlay simulation: joins, maintenance, churn and measurement.

The dynamic counterpart of the snapshot graphs in :mod:`repro.core`,
implementing the network-construction and maintenance protocols sketched
in Section 4.2 of the paper plus the failure-injection tooling used by
the robustness experiments.  :class:`Network` stores the live population
in one array-backed slab (:mod:`repro.overlay.network`), and whole
cohorts of joins/leaves/repairs advance in vectorized rounds through
:mod:`repro.overlay.bulk_dynamics`.  The per-peer protocols
(:func:`join_known_f`, :func:`join_adaptive`, :func:`refresh_peer`,
:func:`bootstrap_network`) run on the same :class:`Network`; the
dict-of-lists reference network the tests hold it to lives in
``tests/overlay_oracle.py``.
"""

from repro.overlay.bulk_dynamics import (
    BulkReport,
    bulk_bootstrap,
    bulk_join,
    bulk_leave,
    bulk_repair,
    sample_cohort_ids,
)
from repro.overlay.churn import (
    ChurnConfig,
    ChurnEpoch,
    drop_long_links,
    kill_peers,
    run_churn,
)
from repro.overlay.join import (
    JoinReceipt,
    bootstrap_network,
    join_adaptive,
    join_known_f,
    uniform_id_sample,
)
from repro.overlay.maintenance import MaintenanceReport, maintenance_round, refresh_peer
from repro.overlay.network import (
    LinkRowView,
    LookupResult,
    Network,
    PeerView,
)
from repro.overlay.stats import LookupStats, measure_network, summarize_lookups

__all__ = [
    "Network",
    "PeerView",
    "LinkRowView",
    "LookupResult",
    "JoinReceipt",
    "join_known_f",
    "join_adaptive",
    "bootstrap_network",
    "uniform_id_sample",
    "BulkReport",
    "bulk_join",
    "bulk_leave",
    "bulk_repair",
    "bulk_bootstrap",
    "sample_cohort_ids",
    "MaintenanceReport",
    "refresh_peer",
    "maintenance_round",
    "ChurnConfig",
    "ChurnEpoch",
    "run_churn",
    "drop_long_links",
    "kill_peers",
    "LookupStats",
    "summarize_lookups",
    "measure_network",
]
