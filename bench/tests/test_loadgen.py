import asyncio

import pytest

from bench.loadgen import LoadGenerator, PhaseResult, Sample, search_max_rate, step_passes

DELAY = 0.05


async def stub_server(delay: float):
    """Answers every POST after *delay* seconds, one request at a time
    per connection (HTTP/1.1 keep-alive)."""

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode().split("\r\n"):
                    if line.lower().startswith("content-length:"):
                        length = int(line.split(":")[1])
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_counts_from_due_time_including_connection_wait():
    async def scenario():
        server = await stub_server(DELAY)
        port = server.sockets[0].getsockname()[1]
        gen = LoadGenerator("127.0.0.1", port, connections=1)
        try:
            # Three requests due 10 ms apart on one connection: each waits
            # for the previous answer before it can be sent.
            result = await gen.run_phase(
                [0.0, 0.01, 0.02], lambda i: (i, b"{}"), keep=lambda i: i == 2
            )
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()
        return result

    result = asyncio.run(scenario())
    first, second, third = result.samples
    assert [s.status for s in result.samples] == [200, 200, 200]
    assert first.latency == pytest.approx(DELAY, abs=0.03)
    # The second request was due at 10 ms but sent only after the first
    # answer (~50 ms): its latency includes that wait.
    assert second.sent - second.due == pytest.approx(DELAY - 0.01, abs=0.03)
    assert second.latency == pytest.approx(2 * DELAY - 0.01, abs=0.03)
    assert third.latency == pytest.approx(3 * DELAY - 0.02, abs=0.04)
    assert third.payload == b"ok" and first.payload is None
    assert result.errors == 0 and len(result.lateness) == 3


def phase(latencies_ms, status=200):
    samples = []
    for i, ms in enumerate(latencies_ms):
        samples.append(Sample(i, due=float(i), sent=float(i), done=i + ms / 1000.0,
                              status=status))
    return PhaseResult(samples, [0.0] * len(samples))


def test_step_passes_on_limit_errors_and_backlog():
    assert step_passes(phase([10.0] * 100), 25.0)
    assert not step_passes(phase([10.0] * 90 + [30.0] * 10), 25.0)  # p95 over
    assert not step_passes(phase([10.0] * 100, status=429), 25.0)
    # A growing backlog: the last quarter waits > 2x the first quarter.
    growing = [2.0] * 25 + [5.0] * 50 + [18.0] * 25
    assert not step_passes(phase(growing), 25.0)
    # Doubling far below the limit is a burst, not a backlog.
    assert step_passes(phase([2.0] * 25 + [5.0] * 75), 25.0)


def test_max_rate_search_on_a_synthetic_latency_curve():
    capacity = 173.0

    def try_rate(rate):
        return rate <= capacity

    rate, steps = search_max_rate(80.0, try_rate)
    # 80, 96, 115.2, 138.24, 165.89 pass, 199.07 fails, then 3 bisections.
    assert len(steps) == 9 and steps[5] == (pytest.approx(199.0656), False)
    assert 165.888 <= rate <= capacity
    assert capacity - rate < (199.0656 - 165.888) / 2**3 + 1e-9

    # A start rate above capacity walks down instead.
    rate, steps = search_max_rate(300.0, try_rate)
    assert steps[:2] == [(300.0, False), (pytest.approx(250.0), False)]
    assert 0.0 < rate <= capacity
    # Nothing passes: rate 0.
    assert search_max_rate(10.0, lambda r: False, max_steps=3)[0] == 0.0
