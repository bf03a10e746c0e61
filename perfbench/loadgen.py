"""Open- and closed-loop HTTP/1.1 load from one process.

The open loop sends each request when it falls due on a seeded Poisson
schedule, whether or not earlier ones have finished; at most ``conns``
keep-alive connections carry them, so a request that finds every
connection busy waits in the generator and that wait counts against
the system (latency runs from the due time).  The closed loop keeps
each connection busy back to back, for throughput.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    body: bytes
    due: float = 0.0
    ref: int = 0  # index into the caller's table of expected answers


@dataclass(frozen=True)
class Result:
    request: Request
    due: float  # absolute, loop clock
    sent: float
    done: float
    status: int
    body: bytes


def poisson_dues(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Due times (seconds from start) of a Poisson process at ``rate``."""
    dues, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return dues
        dues.append(t)


class Connection:
    """One keep-alive HTTP/1.1 connection (requests strictly in turn)."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def send(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        lines = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _connections(host: str, port: int, conns: int) -> list[Connection]:
    opened = [Connection(host, port) for _ in range(conns)]
    for conn in opened:
        await conn.open()
    return opened


async def open_loop(host: str, port: int, requests: list[Request], conns: int) -> list[Result]:
    """Send ``requests`` at their due times over ``conns`` connections."""
    loop = asyncio.get_running_loop()
    pool = await _connections(host, port, conns)
    queue: asyncio.Queue = asyncio.Queue()
    results: list[Result] = []
    start = loop.time() + 0.05

    async def produce() -> None:
        for request in requests:
            delay = start + request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait(request)
        for _ in pool:
            queue.put_nowait(None)

    async def consume(conn: Connection) -> None:
        while True:
            request = await queue.get()
            if request is None:
                return
            sent = loop.time()
            status, body = await conn.send("POST", request.path, request.body)
            results.append(Result(request, start + request.due, sent, loop.time(), status, body))

    try:
        await asyncio.gather(produce(), *(consume(conn) for conn in pool))
    finally:
        for conn in pool:
            await conn.close()
    return results


async def closed_loop(
    host: str, port: int, make, conns: int, seconds: float
) -> tuple[list[Result], float]:
    """Keep ``conns`` connections busy for ``seconds``; ``make(i)``
    builds the ``i``-th request.  Returns results and the elapsed
    time until the last one finished."""
    loop = asyncio.get_running_loop()
    pool = await _connections(host, port, conns)
    results: list[Result] = []
    counter = iter(range(1 << 30))
    start = loop.time()

    async def drive(conn: Connection) -> None:
        while loop.time() - start < seconds:
            request = make(next(counter))
            sent = loop.time()
            status, body = await conn.send("POST", request.path, request.body)
            results.append(Result(request, sent, sent, loop.time(), status, body))

    try:
        await asyncio.gather(*(drive(conn) for conn in pool))
    finally:
        for conn in pool:
            await conn.close()
    return results, loop.time() - start


async def get_json_bytes(host: str, port: int, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection (``/metrics``, ``/healthz``)."""
    conn = Connection(host, port)
    await conn.open()
    try:
        return await conn.send("GET", path)
    finally:
        await conn.close()
