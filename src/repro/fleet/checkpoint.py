"""Durable fleet checkpoints: epoch-stamped, atomic, self-verifying.

A fleet run is deterministic, so its entire future is a function of its
present state — and the present state is exactly what already crosses
process boundaries for the parallel driver: one
:meth:`~repro.fleet.context.TenantContext.transfer_snapshot` pickle per
tenant (database, clock, telemetry registry, event log, predictor
history, guard ledger, fault-injector RNG — every stateful component,
including all random-number streams, rides inside the pickle), plus the
small amount of parent-side state the snapshots do not carry: the
per-tenant bin records, the driver's incremental counter rollup cache,
the :class:`~repro.fleet.arbiter.FleetOrganizer`'s decision variables,
and the ``next_bin`` cursor. :class:`FleetCheckpoint` bundles all of it.

The same bundle serves two masters:

- **durable checkpoint/resume** — :func:`write_checkpoint` pickles the
  bundle to ``fleet-ckpt-<epoch>.pkl`` via write-to-temp + fsync +
  atomic ``os.replace`` (a crash mid-write never damages an existing
  checkpoint), and :meth:`~repro.fleet.driver.FleetDriver.resume`
  rebuilds a driver whose continuation is bit-identical to a run that
  was never interrupted;
- **worker supervision** — the parallel driver keeps the latest bundle
  in memory as its crash restore point: when a worker process dies, the
  fleet rolls back to the last bin boundary and deterministically
  re-executes the interrupted bin (see ``docs/robustness.md``).

Integrity is checked at two grains, and the on-disk layout mirrors
them: a small SHA-256-protected "meta" pickle (the bundle with blobs
stripped) followed by the tenant snapshots as raw byte segments. A torn
file or bit rot in the meta region fails loudly at
:func:`load_checkpoint` (and :func:`latest_checkpoint` falls back to an
older epoch), while every tenant blob carries its own SHA-256 taken at
capture time — so a corrupted *tenant* snapshot (the chaos harness
injects exactly this, see
:meth:`~repro.faults.injector.FaultInjector.checkpoint_corruption`) is
detected per tenant at restore, letting the fleet quarantine that one
tenant and degrade gracefully instead of refusing the whole checkpoint.
The split also keeps the hot path honest: blob bytes are hashed once at
capture and written once at checkpoint, never re-pickled or re-hashed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fleet.arbiter import FleetConfig

#: file-format magic (refuse to unpickle arbitrary files)
MAGIC = "repro-fleet-checkpoint"
#: bump when the bundle layout changes incompatibly
FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^fleet-ckpt-(\d{6})\.pkl$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, verified, or applied."""


def blob_digest(blob: bytes) -> str:
    """Hex SHA-256 of one tenant snapshot blob."""
    return hashlib.sha256(blob).hexdigest()


@dataclass
class TenantState:
    """One tenant's slice of a fleet checkpoint."""

    tenant: str
    #: ``TenantContext.transfer_snapshot()`` pickle (workload slots and
    #: arbiter hooks excluded; everything stateful included)
    blob: bytes
    #: SHA-256 of the blob *at capture time* — stays honest even when
    #: the chaos harness damages ``blob`` afterwards, which is how a
    #: restore detects the damage
    blob_sha256: str
    #: the tenant's bin records so far (parent-side copies)
    records: list = field(default_factory=list)
    #: the driver's latest-value counter cache for this tenant (restored
    #: verbatim so the incremental rollup keeps its exact addend order)
    counters: dict[str, float] = field(default_factory=dict)

    def verify(self) -> bool:
        """True when the blob still matches its capture-time digest."""
        return blob_digest(self.blob) == self.blob_sha256


@dataclass
class FleetCheckpoint:
    """Everything needed to continue a fleet run bit-identically."""

    #: first unrun fleet bin (== bins completed); the checkpoint epoch
    next_bin: int
    #: the fleet arbiter's policy knobs at capture time
    config: "FleetConfig"
    #: ``FleetOrganizer.state_snapshot()`` — priors, attempted set,
    #: outcomes, cooldowns, defers, tallies, quarantine set
    arbiter: dict[str, object]
    tenants: list[TenantState]
    #: ``build_fleet`` keyword arguments of the run (when the fleet was
    #: built through it), letting ``FleetDriver.resume`` reconstruct the
    #: workload layout without the caller restating it
    build_args: dict[str, object] | None = None
    #: room for future additions without a format bump
    extra: dict[str, object] = field(default_factory=dict)

    def state_for(self, tenant: str) -> TenantState:
        for state in self.tenants:
            if state.tenant == tenant:
                return state
        raise KeyError(tenant)


# ----------------------------------------------------------------------
# on-disk format


def checkpoint_path(directory: Path | str, next_bin: int) -> Path:
    """Canonical path of the checkpoint at epoch ``next_bin``."""
    if next_bin < 0 or next_bin > 999_999:
        raise CheckpointError(f"epoch out of range: {next_bin}")
    return Path(directory) / f"fleet-ckpt-{next_bin:06d}.pkl"


def encode_checkpoint(ckpt: FleetCheckpoint) -> list[bytes]:
    """Serialize ``ckpt`` into its on-disk byte segments.

    Tenant blobs are already opaque pickles carrying their own
    capture-time SHA-256, so they go into the file as raw segments —
    re-pickling and re-hashing megabytes of snapshot bytes here would
    double the cost of every checkpoint. Only the small "meta" pickle
    (the checkpoint with blobs stripped: records, counters, arbiter
    state, config) gets a file-level digest.

    The returned segments (header pickle, meta pickle, blobs) are plain
    immutable bytes: once encoded, nothing references live fleet state,
    so they are safe to hand to a background writer thread while the
    run continues (see the driver's write-behind periodic checkpoints).
    """
    blobs = [state.blob for state in ckpt.tenants]
    stripped = replace(
        ckpt,
        tenants=[replace(state, blob=b"") for state in ckpt.tenants],
    )
    meta = pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL)
    header = pickle.dumps(
        {
            "magic": MAGIC,
            "version": FORMAT_VERSION,
            "sha256": hashlib.sha256(meta).hexdigest(),
            "meta_length": len(meta),
            "blob_lengths": [len(blob) for blob in blobs],
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return [header, meta, *blobs]


def write_encoded(
    segments: list[bytes], directory: Path | str, next_bin: int
) -> Path:
    """Atomically persist pre-encoded checkpoint segments.

    Write-to-temp in the same directory, fsync, then ``os.replace`` —
    readers only ever see a complete file, and a crash mid-write leaves
    prior checkpoints untouched. Returns the final path. The heavy
    syscalls (``write``, ``fsync``) release the GIL, so calling this
    from a writer thread overlaps the disk work with the run.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = checkpoint_path(directory, next_bin)
    fd, tmp_name = tempfile.mkstemp(
        prefix=final.name + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for segment in segments:
                handle.write(segment)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, final)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return final


def write_checkpoint(ckpt: FleetCheckpoint, directory: Path | str) -> Path:
    """Atomically persist ``ckpt`` under ``directory`` (encode + write)."""
    return write_encoded(
        encode_checkpoint(ckpt), directory, ckpt.next_bin
    )


def load_checkpoint(path: Path | str) -> FleetCheckpoint:
    """Read and verify one checkpoint file.

    Raises :class:`CheckpointError` on a missing, truncated, foreign,
    version-mismatched, or checksum-failing file. Per-tenant blob
    digests are *not* checked here — that happens tenant by tenant at
    restore, where a single damaged blob quarantines one tenant instead
    of rejecting the file.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = pickle.load(handle)
            if (
                not isinstance(header, dict)
                or header.get("magic") != MAGIC
            ):
                raise CheckpointError(f"{path} is not a fleet checkpoint")
            if header.get("version") != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path} has format version {header.get('version')!r}; "
                    f"this build reads version {FORMAT_VERSION}"
                )
            meta = handle.read(header.get("meta_length", 0))
            blobs = [
                handle.read(length)
                for length in header.get("blob_lengths", [])
            ]
    except CheckpointError:
        raise
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if len(meta) != header.get("meta_length"):
        raise CheckpointError(
            f"{path} is truncated: {len(meta)} meta bytes, "
            f"header promises {header.get('meta_length')}"
        )
    if hashlib.sha256(meta).hexdigest() != header.get("sha256"):
        raise CheckpointError(f"{path} failed its checksum (corrupt file)")
    try:
        ckpt = pickle.loads(meta)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint metadata in {path} failed to unpickle: {exc}"
        ) from exc
    if not isinstance(ckpt, FleetCheckpoint):
        raise CheckpointError(f"{path} does not contain a FleetCheckpoint")
    if len(blobs) != len(ckpt.tenants):
        raise CheckpointError(
            f"{path} carries {len(blobs)} blob segments for "
            f"{len(ckpt.tenants)} tenants"
        )
    for state, blob, expected in zip(
        ckpt.tenants, blobs, header.get("blob_lengths", [])
    ):
        if len(blob) != expected:
            raise CheckpointError(
                f"{path} is truncated inside tenant {state.tenant!r}'s "
                f"snapshot ({len(blob)} of {expected} bytes)"
            )
        # reattach without verifying the per-tenant digest: restore
        # checks it tenant by tenant, quarantining a damaged tenant
        # instead of rejecting the whole file
        state.blob = blob
    return ckpt


def list_checkpoints(directory: Path | str) -> list[Path]:
    """Checkpoint files under ``directory``, oldest epoch first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        path
        for path in directory.iterdir()
        if _NAME_RE.match(path.name)
    ]
    return sorted(found, key=lambda p: p.name)


def latest_checkpoint(
    directory: Path | str,
) -> tuple[FleetCheckpoint, Path]:
    """Load the newest checkpoint that passes verification.

    File-level corruption (torn write, bit rot, chaos injection on the
    wrapper) makes the loader fall back to the next-older epoch, so one
    bad file degrades recovery by one checkpoint interval instead of
    losing the run. Raises :class:`CheckpointError` when no file loads.
    """
    paths = list_checkpoints(directory)
    if not paths:
        raise CheckpointError(f"no checkpoints under {directory}")
    errors: list[str] = []
    for path in reversed(paths):
        try:
            return load_checkpoint(path), path
        except CheckpointError as exc:
            errors.append(str(exc))
    raise CheckpointError(
        "every checkpoint failed to load: " + "; ".join(errors)
    )
