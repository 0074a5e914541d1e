"""Host speed probe: how fast each CPU of the host runs Python right now.

The benchmark's hosts drift, in two ways.  Their CPUs run slower at
times: on a 2-CPU virtual machine the same pure-Python loop took 0.10 s in
one minute and 0.20 s in another, in CPU time as much as in wall-clock,
and the two CPUs drift apart.  And the hypervisor takes CPU time away
(*steal*): 1% of it in one hour, 12-19% in the next.  Every workload slows
with both.

A probe process runs a fixed loop of :data:`CHUNK` iterations every
:data:`PERIOD` seconds, pinned to each CPU in turn, and records the thread
CPU seconds each chunk took and that CPU's steal and total clock ticks.
For an interval, :meth:`Probe.slowness` takes each CPU's median chunk time
in units of :data:`NOMINAL_CHUNK_S`, divides it by the share of the CPU's
time not stolen, and averages over the CPUs.  A time divided by the
slowness (a rate multiplied by it) reads as if the host had run at its
reference speed with nothing stolen.

``python -m bench.hostspeed FILE`` runs the probe until SIGTERM or until
its parent exits.  It prints ``ready`` after its first chunk and appends
``<perf_counter> <cpu> <chunk seconds> <steal ticks> <total ticks>`` lines
to *FILE*.
"""

from __future__ import annotations

import bisect
import itertools
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Loop iterations of one probe chunk (about 1 ms of CPU).
CHUNK = 12_000
#: Seconds between probe chunks: the probe takes about 2% of one CPU.
PERIOD = 0.05
#: CPU seconds of one chunk at the reference speed, about the median on a
#: 2-CPU x86-64 virtual machine under Python 3.11.
NOMINAL_CHUNK_S = 0.0010
#: Intervals shorter than this are widened around their middle, so each
#: CPU contributes about ten chunks.
MIN_WINDOW_S = 1.0


def _chunk() -> int:
    total = 0
    for i in range(CHUNK):
        total += i * i % 7
    return total


def _ticks(cpu: int) -> tuple[int, int]:
    """``(steal, total)`` clock ticks of *cpu* since boot, from /proc/stat."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(prefix):
                # user nice system idle iowait irq softirq steal (guest is in user)
                ticks = [int(field) for field in line.split()[1:9]]
                return ticks[7], sum(ticks)
    raise RuntimeError(f"cpu{cpu} is not in /proc/stat")


def _run(path: Path) -> None:
    stop = False

    def on_term(_signum, _frame) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    cpus = sorted(os.sched_getaffinity(0))
    parent = os.getppid()
    lines: list[str] = []
    next_flush = 0.0
    for cpu in itertools.cycle(cpus):
        if stop or os.getppid() != parent:  # stopped, or orphaned
            break
        os.sched_setaffinity(0, {cpu})
        spent = time.thread_time()
        _chunk()
        spent = time.thread_time() - spent
        now = time.perf_counter()
        steal, total = _ticks(cpu)
        lines.append(f"{now!r} {cpu} {spent!r} {steal} {total}\n")
        if now >= next_flush:
            with open(path, "a", encoding="utf-8") as fh:
                fh.writelines(lines)
            lines.clear()
            if not next_flush:
                print("ready", flush=True)
            next_flush = now + 1.0
        time.sleep(PERIOD)
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(lines)


def _time(sample: tuple) -> float:
    return sample[0]


class Probe:
    """A running probe process and, once stopped, its samples."""

    def __init__(self, path: Path) -> None:
        self.path = path
        #: ``{cpu: [(time, chunk CPU seconds, steal ticks, total ticks), ...]}``
        #: in time order, filled by :meth:`stop`.
        self.samples: dict[int, list[tuple[float, float, int, int]]] = defaultdict(list)
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.hostspeed", str(path)],
            cwd=Path(__file__).resolve().parent.parent,
            stdout=subprocess.PIPE,
        )
        if self._proc.stdout.readline() != b"ready\n":
            self._proc.wait()
            raise RuntimeError(f"host-speed probe exited {self._proc.returncode}")

    def stop(self) -> None:
        """Stop the probe and load its samples (once)."""
        if self._proc.stdout.closed:
            return
        self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()
        for line in self.path.read_text().splitlines():
            at, cpu, spent, steal, total = line.split()
            self.samples[int(cpu)].append((float(at), float(spent), int(steal), int(total)))

    def slowness(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]`` (``perf_counter`` times).

        1.0 is the reference speed; 2.0 means work took twice as long, from
        slower CPUs, stolen time or both."""
        if end - start < MIN_WINDOW_S:
            middle = (start + end) / 2.0
            start, end = middle - MIN_WINDOW_S / 2.0, middle + MIN_WINDOW_S / 2.0
        per_cpu = []
        for samples in self.samples.values():
            window = samples[bisect.bisect_left(samples, start, key=_time):
                             bisect.bisect_right(samples, end, key=_time)]
            if not window:
                continue
            speed = statistics.median(s[1] for s in window) / NOMINAL_CHUNK_S
            ticks = window[-1][3] - window[0][3]
            stolen = (window[-1][2] - window[0][2]) / ticks if ticks else 0.0
            per_cpu.append(speed / (1.0 - stolen))
        if not per_cpu:
            raise RuntimeError(f"no host-speed samples in [{start:.3f}, {end:.3f}]")
        return statistics.fmean(per_cpu)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from *start* to *end* at the reference speed."""
        return (end - start) / self.slowness(start, end)


if __name__ == "__main__":
    _run(Path(sys.argv[1]))
