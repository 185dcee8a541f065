"""Atomic per-cell leases with fencing tokens over a shared filesystem.

One lease file per grid cell, named by the cell's content-addressed cache
key, inside a per-sweep lease directory (``<cache root>/leases/<sweep
key>/``).  The protocol assumes nothing beyond what the result cache
already assumes: ``open(O_CREAT | O_EXCL)`` and ``os.replace`` are atomic
on the shared filesystem.

**Claim.**  A fresh cell is claimed by ``O_EXCL``-creating its lease file
— exactly one contender wins.  A cell whose lease is *expired* (heartbeat
older than the TTL), *released*, or *torn* is taken over by atomically
renaming a complete replacement into place and then **re-reading** the
file: rename is last-writer-wins, so the loser of a takeover race
discovers the winner's owner id on the verify read and walks away.

**Fencing.**  Every successful claim carries a fencing token strictly
greater than any token previously issued for that cell (a per-cell
``.token`` high-water file survives even torn lease payloads).  The token
travels with the worker and is compared at cache-store time
(:meth:`LeaseManager.fence`): if a newer token exists, the store is
refused.  Leases are therefore only a *liveness* optimisation — mutual
exclusion failures (zombie workers resumed after takeover, clock skew
past the TTL) cost duplicate computation, never wrong or torn results.

**Heartbeat.**  The owner periodically rewrites its lease with a fresh
timestamp.  Renewal re-reads before and after the write; discovering a
foreign owner or higher token raises :class:`LeaseLost`, telling the
worker to abandon the cell (its store would be fenced out anyway).

Every lease payload carries a content digest (the cache's discipline), so
a torn write — a crash mid-``O_EXCL``-write, or injected corruption — is
*detected* rather than trusted, and the cell is taken over like an
expired one.

The claim → renew → fenced store → release cycle runs inside the
supervisor's loop (:func:`repro.experiments.supervisor.
run_grid_supervised` with ``leases=``); this module only keeps the files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.ioutil import atomic_write_json
from repro.telemetry.log import get_logger

__all__ = [
    "LEASE_SCHEMA",
    "Lease",
    "LeaseError",
    "LeaseLost",
    "LeaseStats",
    "LeaseManager",
    "lease_root",
]

LEASE_SCHEMA = "repro.fabric.lease/v1"

_LOG = get_logger("fabric.lease")


def lease_root(cache_root: str | Path, sweep_key: str) -> Path:
    """The lease directory of one sweep under a cache root."""
    return Path(cache_root) / "leases" / sweep_key


class LeaseError(Exception):
    """Base class for lease protocol failures."""


class LeaseLost(LeaseError):
    """The lease was taken over by another owner (renewal/release failed)."""


@dataclass(frozen=True)
class Lease:
    """One cell's lease as read from (or written to) its lease file."""

    key: str                   # cell cache key
    owner: str                 # claiming worker's id ("host:pid" by default)
    token: int                 # fencing token; strictly increasing per key
    state: str                 # "held" | "released"
    heartbeat: float           # unix seconds of the last renewal
    acquired: float            # unix seconds of the claim

    def payload(self) -> dict:
        body = {"schema": LEASE_SCHEMA, **dataclasses.asdict(self)}
        body["digest"] = _payload_digest(body)
        return body


def _payload_digest(body: dict) -> str:
    trimmed = {k: v for k, v in body.items() if k != "digest"}
    return hashlib.sha256(
        json.dumps(trimmed, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class LeaseStats:
    """What one manager's lease traffic looked like."""

    acquired: int = 0          # fresh O_EXCL claims won
    contended: int = 0         # cells found held by a live peer (once each)
    taken_over: int = 0        # expired/released/torn leases claimed
    lost_races: int = 0        # takeover renames overwritten by a winner
    renewals: int = 0          # successful heartbeats
    lost: int = 0              # LeaseLost raised (ownership stolen)
    released: int = 0
    corrupt_leases: int = 0    # torn/unparsable lease files seen
    fenced_rejects: int = 0    # stores refused by token comparison

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def publish(self, registry, prefix: str = "fabric.lease") -> None:
        for name, value in self.as_dict().items():
            registry.counter(f"{prefix}.{name}").inc(value)


class LeaseManager:
    """Claim, renew, release and fence leases for one sweep's cells.

    Parameters
    ----------
    root:
        The sweep's lease directory (see :func:`lease_root`); created on
        first use.
    owner:
        This worker's identity, recorded in every lease it wins.
    ttl_seconds:
        A lease whose heartbeat is older than this is considered
        abandoned and may be taken over.
    clock:
        Injectable time source (tests and the clock-skew chaos replace
        it); defaults to :func:`time.time` — wall time, because leases
        are compared *across hosts*.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        ttl_seconds: float = 10.0,
        clock=time.time,
    ):
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.root = Path(root)
        self.owner = owner or f"{os.uname().nodename}:{os.getpid()}"
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self.stats = LeaseStats()
        self._contended: set[str] = set()

    # -- paths -----------------------------------------------------------------

    def _lease_path(self, key: str) -> Path:
        return self.root / f"{key}.lease"

    def _token_path(self, key: str) -> Path:
        return self.root / f"{key}.token"

    @property
    def _store_journal(self) -> Path:
        return self.root / "stores.jsonl"

    # -- reading ---------------------------------------------------------------

    def read(self, key: str) -> Lease | None:
        """The current lease for ``key``: a :class:`Lease`, or ``None`` if
        the file is absent or torn (torn counts in ``corrupt_leases``)."""
        try:
            raw = self._lease_path(key).read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            body = json.loads(raw)
            if body.get("digest") != _payload_digest(body):
                raise ValueError("digest mismatch")
            return Lease(
                key=body["key"],
                owner=body["owner"],
                token=int(body["token"]),
                state=body["state"],
                heartbeat=float(body["heartbeat"]),
                acquired=float(body["acquired"]),
            )
        except (ValueError, KeyError, TypeError):
            self.stats.corrupt_leases += 1
            return None

    def _token_floor(self, key: str) -> int:
        """The highest fencing token known to have been issued for ``key``.

        The per-cell ``.token`` high-water file is what keeps tokens
        monotonic across torn lease payloads: a corrupt lease cannot be
        trusted for its token, but the floor file was written by the last
        *successful* claim.
        """
        floor = 0
        lease = self.read(key)
        if lease is not None:
            floor = lease.token
        try:
            floor = max(floor, int(self._token_path(key).read_text().strip()))
        except (FileNotFoundError, OSError, ValueError):
            pass
        return floor

    def _record_token(self, key: str, token: int) -> None:
        path = self._token_path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            tmp.write_text(str(token))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def expired(self, lease: Lease) -> bool:
        """Whether ``lease`` is abandoned by this manager's clock."""
        return lease.heartbeat + self.ttl_seconds < self.clock()

    # -- claiming --------------------------------------------------------------

    def _write_lease(self, lease: Lease) -> None:
        """Atomically replace the lease file with ``lease``'s payload."""
        path = self._lease_path(lease.key)
        data = json.dumps(lease.payload(), sort_keys=True).encode()
        tmp = path.with_suffix(f".tmp{self.owner.replace('/', '_')}.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def try_acquire(self, key: str) -> Lease | None:
        """Claim ``key``: a :class:`Lease` carrying our fencing token, or
        ``None`` when another live owner holds it (or we lost the race).

        Raises ``OSError`` only for an unusable lease directory, which
        ends the drain.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(key)
        now = self.clock()
        if not path.exists():
            lease = Lease(
                key=key, owner=self.owner, token=self._token_floor(key) + 1,
                state="held", heartbeat=now, acquired=now,
            )
            data = json.dumps(lease.payload(), sort_keys=True).encode()
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # raced another claimant; fall through to the read path
            else:
                try:
                    os.write(fd, data)
                finally:
                    os.close(fd)
                self._record_token(key, lease.token)
                self.stats.acquired += 1
                return lease
        current = self.read(key)
        if current is not None and current.state == "held":
            if current.owner == self.owner:
                return current  # already ours (idempotent re-claim)
            if not self.expired(current):
                # A drain polls a held cell until it frees up; count the
                # cell, not the polls.
                if key not in self._contended:
                    self._contended.add(key)
                    self.stats.contended += 1
                return None
        # Expired, released, or torn: take over with a higher token, then
        # verify we actually won (os.replace is last-writer-wins).
        token = self._token_floor(key) + 1
        lease = Lease(
            key=key, owner=self.owner, token=token,
            state="held", heartbeat=now, acquired=now,
        )
        self._write_lease(lease)
        self._record_token(key, token)
        verify = self.read(key)
        if verify is None or verify.owner != self.owner or verify.token != token:
            self.stats.lost_races += 1
            return None
        self.stats.taken_over += 1
        return lease

    # -- ownership maintenance -------------------------------------------------

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: refresh the lease's timestamp, verifying ownership.

        Raises :class:`LeaseLost` if the cell was taken over — the caller
        must stop working the cell (its store would be fenced out).
        """
        current = self.read(lease.key)
        if (
            current is None
            or current.owner != lease.owner
            or current.token != lease.token
        ):
            self.stats.lost += 1
            raise LeaseLost(
                f"lease for {lease.key[:12]} now held by "
                f"{current.owner if current else '<torn/absent>'}"
            )
        renewed = dataclasses.replace(lease, heartbeat=self.clock())
        self._write_lease(renewed)
        verify = self.read(lease.key)
        if (
            verify is None
            or verify.owner != lease.owner
            or verify.token != lease.token
        ):
            self.stats.lost += 1
            raise LeaseLost(f"lease for {lease.key[:12]} stolen during renewal")
        self.stats.renewals += 1
        return renewed

    def release(self, lease: Lease) -> None:
        """Mark the lease released (keeps the file: it carries the token).

        A lease we no longer own is left untouched — the new owner's
        state must win.
        """
        current = self.read(lease.key)
        if (
            current is None
            or current.owner != lease.owner
            or current.token != lease.token
        ):
            return
        self._write_lease(dataclasses.replace(lease, state="released"))
        self.stats.released += 1

    # -- fencing ---------------------------------------------------------------

    def fence_ok(self, lease: Lease) -> bool:
        """Whether a store under ``lease`` is still permitted.

        True iff no token newer than ours has been issued for the cell.
        An *expired but untaken* lease still passes — the computed result
        is still the cell's unique result; only a successor's claim
        invalidates it.
        """
        if self._token_floor(lease.key) > lease.token:
            self.stats.fenced_rejects += 1
            return False
        current = self.read(lease.key)
        if current is not None and (
            current.token > lease.token
            or (current.token == lease.token and current.owner != lease.owner)
        ):
            self.stats.fenced_rejects += 1
            return False
        return True

    def fence(self, lease: Lease):
        """A zero-argument fencing check bound to ``lease`` (for
        :meth:`repro.experiments.cache.ResultCache.store_result`)."""
        return lambda: self.fence_ok(lease)

    def journal_store(self, lease: Lease) -> None:
        """Append one fenced-store record to the sweep's store journal.

        The chaos soak replays this journal to prove no cell was ever
        stored twice under the same fencing token.
        """
        record = {"key": lease.key, "token": lease.token, "owner": lease.owner}
        try:
            with self._store_journal.open("a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                handle.flush()
        except OSError:
            pass  # journal is evidence, not correctness

    def stored_tokens(self) -> list[tuple[str, int, str]]:
        """Replay the store journal as ``(key, token, owner)`` triples."""
        try:
            text = self._store_journal.read_text()
        except (FileNotFoundError, OSError):
            return []
        triples = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                triples.append(
                    (record["key"], int(record["token"]), record["owner"])
                )
            except (ValueError, KeyError, TypeError):
                continue
        return triples

    # -- observation -----------------------------------------------------------

    def beacon(self, state: str, stats: dict) -> None:
        """Publish this owner's liveness row for ``repro swarm status``."""
        try:
            atomic_write_json(
                self.root / "workers" / f"{self.owner.replace('/', '_')}.json",
                {
                    "owner": self.owner,
                    "pid": os.getpid(),
                    "state": state,
                    "updated": self.clock(),
                    "stats": stats,
                    "leases": self.stats.as_dict(),
                },
                sort_keys=True,
            )
        except OSError as error:
            # Liveness reporting must never take the drain down, but a
            # beacon that silently stops updating looks like a dead
            # drain to every observer — say why it stopped.
            _LOG.warning(
                "worker beacon write failed",
                owner=self.owner, state=state, error=str(error),
            )

    def snapshot(self) -> list[dict]:
        """Every lease in the directory, decorated with heartbeat age.

        The coordinator's status view; corrupt leases surface with
        ``state == "torn"`` so an operator sees them instead of a silent
        skip.
        """
        if not self.root.is_dir():
            return []
        now = self.clock()
        rows = []
        for path in sorted(self.root.glob("*.lease")):
            key = path.name[: -len(".lease")]
            lease = self.read(key)
            if lease is None:
                rows.append({"key": key, "state": "torn", "owner": None,
                             "token": self._token_floor(key),
                             "heartbeat_age": None, "expired": True})
                continue
            rows.append(
                {
                    "key": key,
                    "state": lease.state,
                    "owner": lease.owner,
                    "token": lease.token,
                    "heartbeat_age": max(0.0, now - lease.heartbeat),
                    "expired": self.expired(lease),
                }
            )
        return rows
