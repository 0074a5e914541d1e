"""Pinned generator output: the draw order is part of every result.

Every figure, golden digest and cached trial derives from
:func:`generate_workload`, so a change in how the generator consumes
its random stream (batched instead of scalar draws, a reordered loop)
silently moves every number the reproduction reports.  These digests
were computed before the generator's draws were batched; the
serialization keeps insertion order (tasks, WCET classes, successor
rows, E-T-E pairs), which the kernel's summation and tie-break order
depends on, as well as every drawn value.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.rng import make_rng
from repro.system.platform import platform_to_dict
from repro.workload import WorkloadParams, generate_workload


def workload_doc(workload) -> dict:
    graph = workload.graph
    return {
        "tasks": [
            [tid, list(t.wcet.items()), t.phasing]
            for tid, t in graph._tasks.items()
        ],
        "succ": [[src, list(out.items())] for src, out in graph._succ.items()],
        "pred": [[dst, list(inc.items())] for dst, inc in graph._pred.items()],
        "e2e": [[a1, a2, d] for (a1, a2), d in graph._e2e.items()],
        "platform": platform_to_dict(workload.platform),
    }


def stream_digest(params: WorkloadParams, seed: int) -> str:
    """Digest of two workloads drawn back to back from one stream.

    The second workload pins where the first one left the stream.
    """
    rng = make_rng(seed)
    docs = [workload_doc(generate_workload(params, rng)) for _ in range(2)]
    text = json.dumps(docs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    ("ccr0", 0): "01b70a2024b861ca6e93de734b68b87a4924109077b630d687331a36f894143b",
    ("ccr0", 7): "e5cdffe40da17f589112c1179c9bb163e0ff0f495d1de08587bd365507a6eb0f",
    ("default", 0): "fb8f8c17bf0efea1870ca89d6bb4c4936c3e30d7fe7045c3b1f8a2453a713c71",
    ("default", 1): "b251e4422a330ac9b03e84225508ce1347ef7881c1c28e96378780c1e38b0c20",
    ("default", 2026): "dab6763827ae3d3ddf3b67baafa6034cf964131182517d6837fd3d8d21830da1",
    # Pinned after the pair-surplus workload sum was put in topological
    # order (before, the digest followed PYTHONHASHSEED).
    ("pair", 0): "0631631cbb394c66810170b32f223077957384756da8b267328ba03c6f43623c",
    ("pair", 7): "20cb9393f31095e3c5a34b1681d4dfa9aca1e4d3568ae8da00faf09259fc3f99",
    ("skew1", 0): "72535e4e5bd679bdca2e8f5d8ec99c92749c6a6b7af81c616dd13117e4a22850",
    ("skew1", 7): "40e8ae3f9082dc93ce2e1d045d226fc42d74d6fbf8a0640608bccf92a1525284",
}

PARAMS = {
    "default": WorkloadParams(),
    "ccr0": WorkloadParams(ccr=0.0),
    "skew1": WorkloadParams(level_skew=1.0),
    "pair": WorkloadParams(deadline_mode="pair-surplus"),
}


@pytest.mark.parametrize("case", sorted(DIGESTS), ids=str)
def test_generated_workload_is_pinned(case):
    name, seed = case
    assert stream_digest(PARAMS[name], seed) == DIGESTS[case]


#: Prints the digest of a few pair-surplus workloads' E-T-E deadlines.
_PAIR_PROBE = """
import hashlib, json
from repro.rng import make_rng
from repro.workload import WorkloadParams, generate_workload
params = WorkloadParams(deadline_mode="pair-surplus")
docs = [
    list(generate_workload(params, make_rng(s * 1000 + 10)).graph._e2e.items())
    for s in range(6)
]
print(hashlib.sha256(json.dumps(docs).encode()).hexdigest())
"""


def test_pair_surplus_deadlines_do_not_depend_on_the_string_hash():
    """Each pair's workload is a float sum over a set of task ids; it
    must not follow the set's per-process iteration order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = {
        subprocess.run(
            [sys.executable, "-c", _PAIR_PROBE],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for seed in ("1", "2")
    }
    assert len(digests) == 1


@pytest.mark.parametrize("lo,hi", [(1, 3), (1, 4), (0, 7), (1, 1 << 20)])
def test_batched_integers_match_scalar_draws(lo, hi):
    k = 37
    batched, scalar = make_rng(11), make_rng(11)
    values = batched.integers(lo, hi, size=k).tolist()
    assert values == [int(scalar.integers(lo, hi)) for _ in range(k)]
    # The stream continues identically, including the half-used
    # 32-bit word a bounded draw may leave buffered.
    assert batched.integers(lo, hi, size=5).tolist() == [
        int(scalar.integers(lo, hi)) for _ in range(5)
    ]
    assert batched.random() == scalar.random()


def test_batched_uniforms_match_scalar_draws():
    batched, scalar = make_rng(5), make_rng(5)
    assert batched.random(23).tolist() == [scalar.random() for _ in range(23)]
    assert batched.integers(0, 9) == scalar.integers(0, 9)
    assert batched.random() == scalar.random()


def test_empty_batches_draw_nothing():
    batched, untouched = make_rng(3), make_rng(3)
    assert batched.random(0).size == 0
    assert batched.integers(1, 5, size=0).size == 0
    assert batched.random() == untouched.random()
