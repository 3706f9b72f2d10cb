"""Snapshot naming and the per-base version registry.

A snapshot of table ``t`` is registered in the database catalog under
the *internal* name ``t@v<n>`` — a name no user table can take (``@``
is not an identifier character in the SQL dialect).  Routing versions
through distinct catalog names is what makes the whole stack
version-aware for free:

* the executor and the chunked pipeline scan ``t@v1`` like any table;
* the canonical fingerprint's ``("scan", name)`` core key — and with
  it every synopsis-catalog entry — is keyed by ``(table, version)``;
* mutating the live table invalidates only ``t``'s synopses; the
  frozen versions (immutable by construction) keep theirs.
"""

from __future__ import annotations

from repro.errors import SchemaError

VERSION_SEP = "@v"


def versioned_name(base: str, version: int) -> str:
    """The internal catalog name of ``base`` at ``version``."""
    if version < 1:
        raise SchemaError(
            f"snapshot versions start at 1; got {version} for {base!r}"
        )
    return f"{base}{VERSION_SEP}{version:d}"


def split_versioned_name(name: str) -> tuple[str, int | None]:
    """``(base, version)`` of a catalog name; ``(name, None)`` if live."""
    base, sep, suffix = name.rpartition(VERSION_SEP)
    if sep and base and suffix.isdigit():
        return base, int(suffix)
    return name, None


def base_name(name: str) -> str:
    """The base-table name behind a (possibly versioned) catalog name."""
    return split_versioned_name(name)[0]


class SnapshotRegistry:
    """Tracks which snapshot versions exist per base table.

    Purely bookkeeping — the snapshot *tables* live in the database
    catalog under their :func:`versioned_name`.  Versions count up from
    1 per base table and are never reused, so a version number uniquely
    identifies frozen contents for the lifetime of the database.
    """

    __slots__ = ("_versions",)

    def __init__(self) -> None:
        self._versions: dict[str, list[int]] = {}

    def versions_of(self, base: str) -> tuple[int, ...]:
        """All snapshot versions of ``base``, ascending."""
        return tuple(self._versions.get(base, ()))

    def latest(self, base: str) -> int | None:
        versions = self._versions.get(base)
        return versions[-1] if versions else None

    def has(self, base: str, version: int) -> bool:
        return version in self._versions.get(base, ())

    def allocate(self, base: str) -> int:
        """Reserve and record the next version number for ``base``."""
        versions = self._versions.setdefault(base, [])
        version = (versions[-1] + 1) if versions else 1
        versions.append(version)
        return version

    def drop_base(self, base: str) -> tuple[int, ...]:
        """Forget ``base`` entirely; returns the versions that existed."""
        return tuple(self._versions.pop(base, ()))

    def __len__(self) -> int:
        return sum(len(v) for v in self._versions.values())
