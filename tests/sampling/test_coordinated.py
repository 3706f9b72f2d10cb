"""Coordinated Bernoulli draws and the optimizer's family table."""

from __future__ import annotations

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fuzz.generator import SAMPLE_TAG_WEIGHTS
from repro.optimizer.candidates import FAMILIES, RATE_LADDER, make_method
from repro.sampling import CoordinatedBernoulli, coordination_seed

KEYS = np.arange(5_000, dtype=np.int64)

#: ``describe()`` of every family at every ladder rate for one
#: versioned relation, recorded before the table replaced the family
#: registry: the relation's seed, its snapshot namespace and WOR's
#: two-row floor all show.
PINNED_DESCRIBE = {
    "bernoulli": tuple(
        f"BERNOULLI({r} PERCENT)" for r in (2, 5, 10, 20, 40, 80)
    ),
    "lineage-hash": tuple(
        f"HASH-BERNOULLI({r} PERCENT, seed=428185989)"
        for r in (2, 5, 10, 20, 40, 80)
    ),
    "block": tuple(
        f"SYSTEM({r} PERCENT, BLOCK 64)" for r in (2, 5, 10, 20, 40, 80)
    ),
    "wor": tuple(f"WOR({n} ROWS)" for n in (2, 2, 2, 2, 3, 6)),
    "coordinated": tuple(
        f"COORDINATED({r} PERCENT, namespace='orders', salt=17)"
        for r in (2, 5, 10, 20, 40, 80)
    ),
}

#: sha256 of ``"{family} {rate} {relation} {size} {seed}: {describe}\n"``
#: over three relations × every family × every ladder rate, recorded
#: with :data:`PINNED_DESCRIBE`.
PINNED_DESCRIBE_DIGEST = (
    "94fb1258bf82f729fed1592ae0a1a57e7c6f3a868e783c7f521cecb31095e105"
)


class TestCoordinatedDraws:
    def test_same_key_and_rate_agree_across_instances(self):
        """The whole point: any party naming the namespace gets the
        same per-key decisions — no shared state required."""
        a = CoordinatedBernoulli(0.3, namespace="fact", salt=7)
        b = CoordinatedBernoulli(0.3, namespace="fact", salt=7)
        np.testing.assert_array_equal(a.keep(KEYS), b.keep(KEYS))

    def test_nesting_at_escalating_rates(self):
        """A higher rate keeps a strict superset of a lower rate's keys
        (monotone sampling), at every rung of the ladder."""
        rates = (0.01, 0.05, 0.2, 0.5, 0.9)
        masks = [
            CoordinatedBernoulli(p, namespace="fact", salt=3).keep(KEYS)
            for p in rates
        ]
        for lower, higher in zip(masks, masks[1:]):
            assert not np.any(lower & ~higher)
        counts = [int(m.sum()) for m in masks]
        assert counts == sorted(counts)

    def test_at_rate_preserves_the_namespace(self):
        method = CoordinatedBernoulli(0.5, namespace="fact", salt=11)
        thinned = method.at_rate(0.1)
        assert isinstance(thinned, CoordinatedBernoulli)
        assert (thinned.namespace, thinned.salt) == ("fact", 11)
        assert not np.any(thinned.keep(KEYS) & ~method.keep(KEYS))

    def test_namespaces_and_salts_decorrelate(self):
        base = CoordinatedBernoulli(0.5, namespace="fact", salt=0)
        other_ns = CoordinatedBernoulli(0.5, namespace="dim", salt=0)
        other_salt = CoordinatedBernoulli(0.5, namespace="fact", salt=1)
        for other in (other_ns, other_salt):
            overlap = np.mean(base.keep(KEYS) == other.keep(KEYS))
            # Independent fair coins agree half the time.
            assert overlap == pytest.approx(0.5, abs=0.05)

    def test_keep_rate_statistics(self):
        mask = CoordinatedBernoulli(0.3, namespace="fact").keep(KEYS)
        assert mask.mean() == pytest.approx(0.3, abs=0.02)

    def test_gus_is_plain_bernoulli(self):
        """A single coordinated sample is an ordinary lineage-keyed
        Bernoulli filter, so the whole sampling algebra applies."""
        g = CoordinatedBernoulli(0.25, namespace="fact").gus("fact", 1000)
        assert g.a == pytest.approx(0.25)
        assert g.b_of([]) == pytest.approx(0.0625)

    def test_empty_namespace_refused(self):
        with pytest.raises(ReproError):
            CoordinatedBernoulli(0.5, namespace="")

    def test_describe_names_the_namespace(self):
        text = CoordinatedBernoulli(0.1, namespace="fact", salt=9).describe()
        assert "fact" in text and "COORDINATED" in text

    def test_coordination_seed_is_pure_and_distinct(self):
        assert coordination_seed("fact", 1) == coordination_seed("fact", 1)
        assert coordination_seed("fact", 1) != coordination_seed("fact", 2)
        assert coordination_seed("fact", 1) != coordination_seed("dim", 1)


class TestFamilyTable:
    def test_families_are_enumerated_in_order(self):
        """Enumeration order breaks candidate ranking ties."""
        assert list(FAMILIES) == [
            "bernoulli",
            "lineage-hash",
            "block",
            "wor",
            "coordinated",
        ]

    def test_snapshots_share_a_coordination_namespace(self):
        """Family instances built for ``t``, ``t@v1``, ``t@v2`` draw the
        same per-key decisions — versioned scans stay coordinated."""
        masks = [
            make_method("coordinated", 0.3, relation, 400, 17).keep(KEYS)
            for relation in ("fact", "fact@v1", "fact@v2")
        ]
        np.testing.assert_array_equal(masks[0], masks[1])
        np.testing.assert_array_equal(masks[0], masks[2])

    def test_sample_tags_cover_the_surface(self):
        """One clause form per ``TABLESAMPLE`` spelling; coordinated
        sampling shares lineage-hash's.  The order fixes the fuzz
        stream."""
        assert list(SAMPLE_TAG_WEIGHTS) == [
            "percent",
            "percent-repeatable",
            "system",
            "rows",
        ]

    def test_describe_strings_are_pinned(self):
        for family in FAMILIES:
            got = tuple(
                make_method(family, rate, "orders@v2", 7, 17).describe()
                for rate in RATE_LADDER
            )
            assert got == PINNED_DESCRIBE[family], family
        lines = [
            f"{family} {rate} {relation} {size} {seed}: "
            + make_method(family, rate, relation, size, seed).describe()
            for relation, size, seed in (
                ("lineitem", 1000, 0),
                ("orders@v2", 7, 17),
                ("fact", 400, 3),
            )
            for family in FAMILIES
            for rate in RATE_LADDER
        ]
        blob = "".join(line + "\n" for line in lines).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_DESCRIBE_DIGEST

    def test_sampling_imports_no_layer_above(self):
        """``repro.sampling`` is a leaf of the engine: importing it
        loads neither the snapshot layer nor the optimizer."""
        script = (
            "import sys, repro.sampling;"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('repro.versions', 'repro.optimizer'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"
