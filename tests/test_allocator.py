"""Importing ``repro`` pins glibc's malloc thresholds.

Without the pin a process's page faults per query depend on what it
freed before: glibc mmaps every block of 128 KiB or more, raises that
threshold to the largest mmapped block freed so far and trims the heap
above twice it.  Six 1 MiB arrays allocated and freed per round then
fault in all 1 536 of their pages every round (1 504 measured without
the pin); with it the heap keeps those pages and every round after the
first takes none.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the thresholds are glibc's",
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

ROUNDS = """
import json, resource
import numpy as np
import repro

faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(6)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""

USER_SETTINGS = (
    "MALLOC_MMAP_THRESHOLD_",
    "MALLOC_TRIM_THRESHOLD_",
    "GLIBC_TUNABLES",
)


def faults_per_round(**env: str) -> list[int]:
    """Minor faults of each round, in a fresh process importing repro."""
    child = {k: v for k, v in os.environ.items() if k not in USER_SETTINGS}
    child["PYTHONPATH"] = SRC
    child.update(env)
    out = subprocess.run(
        [sys.executable, "-c", ROUNDS],
        env=child,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_freed_arrays_are_reused_without_faults():
    assert faults_per_round()[1:] == [0] * 5


@pytest.mark.parametrize(
    "name, value",
    [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ],
)
def test_a_threshold_the_user_set_wins(name, value):
    # glibc's default threshold, fixed by the user: every 1 MiB array is
    # a fresh mapping again, and repro must not override that.
    assert min(faults_per_round(**{name: value})[1:]) > 1_000
