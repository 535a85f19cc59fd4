"""Fleet-scale multi-tenancy: tenant contexts, arbitration, shared priors.

One :class:`TenantContext` per tenant (the complete self-management
stack, lifted out of the driver), one :class:`FleetOrganizer` across
them (tuning-budget arbitration plus prior sharing), and a
:class:`FleetDriver` ticking every tenant's closed loop in lockstep
simulated time — in this process or on forked workers
(``parallel="serial" | "process"``), both through one commit-ordered
bin protocol that keeps the two modes bit-identical. ``build_fleet`` is
the one-call constructor the CLI and benchmarks use.
"""

from repro.fleet.arbiter import (
    ArbiterView,
    FleetConfig,
    FleetOrganizer,
    ReplayOutcome,
    TenantDigest,
    TuningPrior,
)
from repro.fleet.checkpoint import (
    CheckpointError,
    FleetCheckpoint,
    TenantState,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.fleet.context import TenantContext
from repro.fleet.driver import (
    FleetDriver,
    FleetReport,
    TenantSummary,
    build_fleet,
    default_tenant_driver,
)
from repro.fleet.workload import (
    TenantSpec,
    build_tenant_suite,
    build_tenant_trace,
    profile_rates,
    tenant_specs,
)

__all__ = [
    "ArbiterView",
    "CheckpointError",
    "FleetCheckpoint",
    "FleetConfig",
    "FleetDriver",
    "FleetOrganizer",
    "FleetReport",
    "ReplayOutcome",
    "TenantContext",
    "TenantDigest",
    "TenantSpec",
    "TenantState",
    "TenantSummary",
    "TuningPrior",
    "build_fleet",
    "build_tenant_suite",
    "build_tenant_trace",
    "default_tenant_driver",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "profile_rates",
    "tenant_specs",
    "write_checkpoint",
]
