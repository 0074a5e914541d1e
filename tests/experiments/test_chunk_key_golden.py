"""Golden store keys: ``cell_chunk_key`` pinned across releases.

Every persistent store — local caches, shared sweep stores, the
service's ``--cache-dir`` — is addressed by these digests.  If any of
them drifts (a renamed config field, a default change that leaks into
``to_dict``, a canonicalization tweak), every existing store silently
goes cold and distributed workers recompute the world.  These literals
make that a loud, deliberate event: changing key semantics MUST bump
``CODE_SALT`` (which namespaces old records away) and re-pin the
hashes here, in the same commit.
"""

from __future__ import annotations

from repro.experiments import TrialConfig
from repro.experiments.runner import cell_chunk_key
from repro.store import CODE_SALT, store_key
from repro.workload import WorkloadParams

# The pinned release values.  Do not "fix" a mismatch by editing a
# hash alone — see the module docstring.
GOLDEN_SALT = "trial-semantics/2"
GOLDEN_DEFAULTS = (
    "daf3d8c02f31696e563c220036498c124f7d821655230c5b027cc965f5626fbf"
)
GOLDEN_RICH = (
    "e7ec4c95b5bcd4415cedb42c243721a0b0b46589aa274f88f890a00087134b1b"
)
GOLDEN_STORE_KEY = (
    "bb675c802dc33a727c169cd200592dbc6420a958986b136864667f819d0e8bb8"
)


def test_code_salt_is_pinned():
    assert CODE_SALT == GOLDEN_SALT


def test_store_key_canonicalization_is_pinned():
    assert store_key("x", {"a": 1}) == GOLDEN_STORE_KEY


def test_default_config_chunk_key_is_pinned():
    config = TrialConfig(workload=WorkloadParams(m=4), metric="ADAPT-L")
    assert cell_chunk_key(config, [1, 2, 3]) == GOLDEN_DEFAULTS


def test_rich_config_chunk_key_is_pinned():
    # Non-default workload ranges plus estimator/bus options: covers
    # the config fields the default-config key never exercises.
    config = TrialConfig(
        workload=WorkloadParams(
            m=3, n_tasks_range=(12, 16), depth_range=(4, 6)
        ),
        metric="NORM",
        estimator="mean",
        contention_bus=True,
    )
    assert cell_chunk_key(config, [1001, 1002]) == GOLDEN_RICH


def test_key_inputs_are_exactly_config_and_seeds():
    # The address must not see jobs/engine/chunk enumeration — that is
    # what lets resumed sweeps, different worker counts, and the
    # service share one store.  Seeds and config must both matter.
    config = TrialConfig(workload=WorkloadParams(m=4), metric="ADAPT-L")
    base = cell_chunk_key(config, [1, 2, 3])
    assert cell_chunk_key(config, [1, 2]) != base
    other = TrialConfig(workload=WorkloadParams(m=5), metric="ADAPT-L")
    assert cell_chunk_key(other, [1, 2, 3]) != base
