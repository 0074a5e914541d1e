"""Ctrl-C on a parallel run must stop *now*, leak-free.

The historical failure mode: ``with ProcessPoolExecutor(...)`` on
KeyboardInterrupt runs ``shutdown(wait=True)``, which quietly computes
every queued unit before letting the interpreter exit — a Ctrl-C that
keeps burning CPU for minutes.  ``_run_pool`` cancels queued futures
and terminates the workers instead, and every pool user —
``run_experiment``, ``run_robustness`` and ``run_sweep2d`` — goes
through it.  Verified from the outside: a child process running a
large parallel sweep gets SIGINT (to the child alone — its pool workers
see nothing, like a real terminal foreground process group only
delivers to the leader here), and must exit promptly, report the
interrupt, and leave no worker processes behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs sized to go on for minutes if the interrupt were mishandled:
#: many queued units on few workers, so cancellation has real work to
#: discard.  ``RUNNING`` flushes right before the pool spins up.
_RUNS = {
    "run_experiment": """
        from repro.experiments.figures import get_figure_spec
        from repro.experiments.runner import run_experiment

        def run():
            run_experiment(
                get_figure_spec("fig2"), trials=512, jobs=2, chunk_size=4
            )
    """,
    "run_robustness": """
        from repro.core.metrics import METRIC_NAMES
        from repro.experiments import TrialConfig, run_robustness
        from repro.workload import WorkloadParams

        def build(conf, metric):
            return TrialConfig(workload=WorkloadParams(**conf), metric=metric)

        def run():
            run_robustness(
                METRIC_NAMES, [{"m": m} for m in (2, 3, 4, 6)], build,
                trials=4096, jobs=2, chunk_size=64,
            )
    """,
    "run_sweep2d": """
        from repro.experiments import TrialConfig, run_sweep2d
        from repro.workload import WorkloadParams

        def config_for(m, olr):
            return TrialConfig(workload=WorkloadParams(m=m, olr=olr))

        def run():
            run_sweep2d(
                config_for, (2, 3, 4, 6), (0.6, 0.8, 1.0, 1.2),
                trials=4096, jobs=2, chunk_size=64,
            )
    """,
}

_CHILD = """
import sys
{run}
print("RUNNING", flush=True)
try:
    run()
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(130)
print("FINISHED", flush=True)  # must not be reached
sys.exit(0)
"""


def _interrupt(entry: str) -> None:
    """Run *entry*'s child, SIGINT it mid-run, check a prompt clean exit."""
    child = _CHILD.format(run=textwrap.dedent(_RUNS[entry]))
    proc = subprocess.Popen(
        [sys.executable, "-c", child],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": _SRC},
        start_new_session=True,  # its pool becomes its own process group
    )
    try:
        assert b"RUNNING" in proc.stdout.readline()
        time.sleep(2.0)  # let the pool fill with queued futures
        os.kill(proc.pid, signal.SIGINT)  # the parent only, like a TTY
        start = time.monotonic()
        out, _ = proc.communicate(timeout=60)
        elapsed = time.monotonic() - start
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup path
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, out
    assert b"INTERRUPTED" in out and b"FINISHED" not in out
    # Prompt: worlds apart from the ~minutes the queued units would
    # take.  The bound must absorb spawn-context worker startup and
    # teardown on a saturated single-CPU box (observed >20 s under
    # load), so it is generous — the regression it guards against is
    # two orders of magnitude larger.
    assert elapsed < 45.0
    # No leaked workers: every process of the child's group is gone.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break  # group fully reaped
        time.sleep(0.2)
    else:
        os.killpg(proc.pid, signal.SIGKILL)  # clean up before failing
        raise AssertionError("worker processes outlived the interrupt")


def test_sigint_cancels_promptly_and_leaks_no_workers():
    _interrupt("run_experiment")


@pytest.mark.parametrize("entry", ["run_robustness", "run_sweep2d"])
def test_sigint_cancels_every_pool_user(entry):
    _interrupt(entry)
