import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from bench.trace import Span, covered_seconds, layer_metrics, load_spans, self_times

ROOT = Path(__file__).resolve().parents[2]


def span(name, sid, parent, start, end, pid=1, n=None):
    return Span(name, pid, 7, sid, parent, start, end, n)


def test_self_time_subtracts_children_only():
    spans = [
        span("fabric.worker", 1, 0, 0.0, 10.0),
        span("fabric.compute", 2, 1, 1.0, 7.0),
        span("vec.batch", 3, 2, 1.5, 6.5),
        span("kernel.slice", 4, 3, 2.0, 3.0),
        span("kernel.slice", 5, 3, 4.0, 5.5),
        span("fabric.lease", 6, 1, 8.0, 8.5),
        # Same ids in another process never nest under pid 1's spans.
        span("kernel.slice", 2, 0, 0.0, 4.0, pid=2),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 6.0 - 0.5)
    assert own[(1, 2)] == pytest.approx(6.0 - 5.0)
    assert own[(1, 3)] == pytest.approx(5.0 - 2.5)
    assert own[(1, 4)] == pytest.approx(1.0)
    assert own[(2, 2)] == pytest.approx(4.0)
    # Self times partition the top-level span exactly.
    assert sum(v for (pid, _), v in own.items() if pid == 1) == pytest.approx(10.0)

    layers = layer_metrics(spans)
    assert layers["kernel.slice_s"] == pytest.approx(2.5 + 4.0)
    assert layers["kernel.slice_calls"] == 3
    assert layers["fabric.worker_idle_s"] == pytest.approx(3.5)
    assert layers["fabric.worker_util"] == pytest.approx(6.5 / 10.0)
    assert layers["fabric.compute_coverage"] == pytest.approx(5.0 / 6.0)
    assert covered_seconds(spans, 1) == pytest.approx(10.0)


def test_retry_ratio_counts_trials_under_a_batch():
    spans = [
        span("vec.batch", 1, 0, 0.0, 1.0, n=8),
        span("experiments.trial", 2, 1, 0.1, 0.2),
        span("experiments.trial", 3, 0, 2.0, 2.1),  # not a retry
        span("store.get", 4, 0, 3.0, 3.1, n=1),
        span("store.get", 5, 0, 3.2, 3.3, n=0),
    ]
    layers = layer_metrics(spans)
    assert layers["vec.retry_ratio"] == pytest.approx(1 / 8)
    assert layers["store.hit_ratio"] == pytest.approx(0.5)


def test_install_wraps_every_target_and_records_spans(tmp_path):
    """Targets imported before and after install are all wrapped, no repro.*
    global still references an unwrapped target, and a wrapped call lands
    in the process's span file."""
    script = textwrap.dedent(
        f"""
        import functools, importlib, json, sys
        sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]
        import repro.workload  # imported before install: patched at once
        from bench import trace
        recorder = trace.install({str(tmp_path)!r})
        import repro.cli.main, repro.fabric, repro.service  # patched on import
        unwrapped = [
            attr for _name, module, attr, _count in trace.TARGETS
            if not hasattr(functools.reduce(getattr, attr.split("."),
                                            importlib.import_module(module)),
                           "__wrapped__")
        ]
        from repro.rng import make_rng
        from repro.workload import WorkloadParams, generate_workload
        from repro.experiments import context
        generate_workload(WorkloadParams(m=2), make_rng(1))
        context.TrialContext.from_seed(WorkloadParams(m=2), 2)
        recorder.flush()
        print(json.dumps([unwrapped, trace.unwrapped_references()]))
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
    names = [s.name for s in load_spans(tmp_path)]
    assert names == ["workload.generate", "workload.generate"]
