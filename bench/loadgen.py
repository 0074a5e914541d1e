"""Open-loop HTTP load generator, percentile selection and the rate search.

The generator is one asyncio loop.  A dispatcher releases each request at
its due time (Poisson arrivals) into a queue that a fixed number of
keep-alive connections drain, so a stalled server makes later requests
wait client-side.  Every latency is measured from the request's *due*
time: waiting for a free connection counts.  The dispatcher's own
lateness is recorded too; a late generator invalidates the latencies.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import socket
import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it would describe a handful of outliers.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the nearest-rank *q*-th."""
    return n - _rank(n, q)


def reportable(n: int, q: float) -> bool:
    return beyond(n, q) >= MIN_BEYOND


def highest_reportable(n: int, candidates=(99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile *n* samples can support, or None."""
    for q in candidates:
        if reportable(n, q):
            return q
    return None


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One request: when it was due, sent and answered (loop clock)."""

    index: int  # which body was sent
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0 = transport error or never sent
    payload: bytes | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class PhaseResult:
    samples: list[Sample]
    lateness: list[float]  # dispatcher lateness per request, seconds
    dropped: int = 0  # due but never sent (step abandoned at its deadline)

    @property
    def errors(self) -> int:
        """Requests sent and not answered 200 (status 0: transport error)."""
        return sum(1 for s in self.samples if s.sent and s.status != 200)

    def latencies_ms(self) -> list[float]:
        return [1000.0 * s.latency for s in self.samples if s.status == 200]


def arrivals(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Poisson arrival offsets in ``[0, seconds)`` at *rate* per second."""
    out, t = [], rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def _request_bytes(body: bytes) -> bytes:
    head = (
        "POST /assign HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


async def _roundtrip(reader, writer, request: bytes) -> tuple[int, bytes]:
    writer.write(request)
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


@dataclass
class LoadGenerator:
    """Keep-alive connections to one server, reused across phases."""

    host: str
    port: int
    connections: int = 2
    _conns: list = field(default_factory=list)

    async def _connect(self):
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return reader, writer

    async def close(self) -> None:
        for _reader, writer in self._conns:
            writer.close()
        self._conns = []

    async def _open(self) -> None:
        while len(self._conns) < self.connections:
            self._conns.append(await self._connect())

    async def _send(self, slot: int, sample: Sample, body: bytes,
                    keep: Callable[[int], bool]) -> None:
        loop = asyncio.get_running_loop()
        reader, writer = self._conns[slot]
        sample.sent = loop.time()
        try:
            status, payload = await _roundtrip(reader, writer, _request_bytes(body))
        except (OSError, asyncio.IncompleteReadError, ValueError):
            writer.close()
            self._conns[slot] = await self._connect()
            return
        sample.done = loop.time()
        sample.status = status
        if keep(sample.index):
            sample.payload = payload

    async def run_phase(
        self,
        offsets: list[float],
        pick: Callable[[int], tuple[int, bytes]],
        keep: Callable[[int], bool] = lambda index: False,
        deadline: float | None = None,
    ) -> PhaseResult:
        """Open loop: send one request per offset; ``pick(i)`` gives
        ``(index, body)``.

        ``keep(index)`` selects responses whose bytes are retained for the
        correctness check.  With a *deadline* (seconds after the phase
        start), requests not sent by then are dropped.
        """
        loop = asyncio.get_running_loop()
        await self._open()
        queue: asyncio.Queue = asyncio.Queue()
        samples: list[Sample] = []
        lateness: list[float] = []
        start = loop.time() + 0.005
        stop_at = None if deadline is None else start + deadline
        dropped = 0

        async def dispatch() -> None:
            for i, offset in enumerate(offsets):
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(max(0.0, loop.time() - due))
                index, body = pick(i)
                sample = Sample(index, due)
                samples.append(sample)
                queue.put_nowait((sample, body))
            for _ in range(self.connections):
                queue.put_nowait(None)

        async def drain(slot: int) -> None:
            nonlocal dropped
            while (item := await queue.get()) is not None:
                if stop_at is not None and loop.time() > stop_at:
                    dropped += 1
                else:
                    await self._send(slot, *item, keep)

        await asyncio.gather(dispatch(), *(drain(i) for i in range(self.connections)))
        return PhaseResult(samples, lateness, dropped)

    async def run_closed(
        self,
        seconds: float,
        pick: Callable[[int], tuple[int, bytes]],
        keep: Callable[[int], bool] = lambda index: False,
    ) -> PhaseResult:
        """Closed loop: every connection sends its next request as soon as
        its previous answer arrives, for *seconds*."""
        loop = asyncio.get_running_loop()
        await self._open()
        samples: list[Sample] = []
        end = loop.time() + seconds
        counter = itertools.count()

        async def client(slot: int) -> None:
            while loop.time() < end:
                index, body = pick(next(counter))
                sample = Sample(index, loop.time())
                samples.append(sample)
                await self._send(slot, sample, body, keep)

        await asyncio.gather(*(client(i) for i in range(self.connections)))
        return PhaseResult(samples, [])


def completed_per_second(result: PhaseResult) -> float:
    """Answered requests per second, from the first send to the last answer."""
    done = [s for s in result.samples if s.status == 200]
    if not done:
        return 0.0
    return len(done) / (max(s.done for s in done) - min(s.sent for s in done))


# ----------------------------------------------------------------------
# Pass/fail of one step and the max_rps search
# ----------------------------------------------------------------------


def step_passes(result: PhaseResult, p95_limit_ms: float) -> bool:
    """A step passes with no errors or drops, p95 within the limit and no
    growing backlog.

    The backlog grows when the last quarter's mean latency is over twice
    the first quarter's *and* over half the limit; below half the limit a
    doubling is a burst the server absorbed, not a queue that keeps growing.
    """
    if result.errors or result.dropped or not result.samples:
        return False
    lat = result.latencies_ms()
    if len(lat) != len(result.samples) or percentile(lat, 95) > p95_limit_ms:
        return False
    quarter = max(1, len(lat) // 4)
    last = statistics.fmean(lat[-quarter:])
    return last <= 2.0 * statistics.fmean(lat[:quarter]) or last <= p95_limit_ms / 2


def search_max_rate(
    start_rate: float,
    try_rate: Callable[[float], bool],
    *,
    factor: float = 1.2,
    bisections: int = 3,
    max_steps: int = 14,
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest passing rate: try *start_rate*, step by *factor* (up after a
    pass, down after a failure) until the outcome flips, then bisect the
    bracket *bisections* times.

    Returns ``(rate, [(rate, passed), ...])``; the rate is 0.0 when nothing
    passed.  ``max_steps`` bounds the bracketing walk.
    """
    steps: list[tuple[float, bool]] = []

    def attempt(rate: float) -> bool:
        ok = try_rate(rate)
        steps.append((rate, ok))
        return ok

    rate = start_rate
    lo, hi = (rate, None) if attempt(rate) else (None, rate)
    while (hi is None or lo is None) and len(steps) < max_steps:
        rate = rate * factor if hi is None else rate / factor
        if attempt(rate):
            lo = rate
        else:
            hi = rate
    if lo is None or hi is None:
        return (lo or 0.0), steps
    for _ in range(bisections):
        mid = (lo + hi) / 2.0
        if attempt(mid):
            lo = mid
        else:
            hi = mid
    return lo, steps
