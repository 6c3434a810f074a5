"""The service-mixed traffic: generated networks, a wire client, a closed loop.

The daemon only ever sees BLIF text in ``map`` requests.  Network
content is a pure function of (connection, index) and does not depend
on ``--seed``: the seed decides the order of new and repeat requests and
which earlier network each repeat re-sends.  Every seed therefore does
the same work in a different order, so runs with different seeds are
comparable and the LUT totals are the same for every seed.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Requests per block; each block holds exactly NEW_PER_BLOCK new networks.
BLOCK = 10
NEW_PER_BLOCK = 4
#: Terminal record types of the wire protocol.
_TERMINAL = {"result", "error", "pong", "stats", "bye", "health"}
#: Client socket timeout for one request.
REQUEST_TIMEOUT = 30.0
#: However few blocks are done, clients stop this long after the deadline.
GRACE = 60.0


def layered_network(conn: int, index: int) -> str:
    """A random layered logic network with 8-12 inputs and 3-7 outputs."""
    rng = random.Random(f"svc-net:{conn}:{index}")
    n_in = rng.randint(8, 12)
    n_out = rng.randint(3, 7)
    inputs = [f"x{i}" for i in range(n_in)]
    lines = [f".model svc_c{conn}_n{index}", ".inputs " + " ".join(inputs)]
    previous, signals = list(inputs), list(inputs)
    body: List[str] = []
    for layer in range(rng.randint(3, 4)):
        current = []
        for j in range(rng.randint(7, 10)):
            name = f"l{layer}_{j}"
            fanin_count = rng.randint(3, 4)
            # Mostly the previous layer, sometimes any earlier signal.
            pool = previous if rng.random() < 0.7 else signals
            fanins = rng.sample(pool, min(fanin_count, len(pool)))
            body.append(".names " + " ".join(fanins + [name]))
            cubes = set()
            for _ in range(rng.randint(2, 5)):
                cube = [rng.choice("01-") for _ in fanins]
                if all(ch == "-" for ch in cube):
                    cube[rng.randrange(len(cube))] = rng.choice("01")
                cubes.add("".join(cube))
            body.extend(f"{cube} 1" for cube in sorted(cubes))
            current.append(name)
        signals.extend(current)
        previous = current
    drivers = rng.sample(signals[n_in:], min(n_out, len(signals) - n_in))
    outputs = [f"o{i}" for i in range(len(drivers))]
    lines.append(".outputs " + " ".join(outputs))
    lines.extend(body)
    for out, driver in zip(outputs, drivers):
        lines.extend([f".names {driver} {out}", "1 1"])
    lines.append(".end")
    return "\n".join(lines) + "\n"


def call(host: str, port: int, payload: Dict[str, object], timeout: float) -> Dict[str, object]:
    """Send one request line; return the terminal record (or raise OSError)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        with sock.makefile("rb") as stream:
            for line in stream:
                record = json.loads(line)
                if record.get("type") in _TERMINAL:
                    return record
    raise OSError("connection closed without a terminal record")


@dataclass
class Reply:
    """One request of the closed loop, as the client saw it."""

    conn: int
    index: int  # network index within the connection
    new: bool  # first submission of this network
    rtt: float
    record: Dict[str, object]

    @property
    def ok(self) -> bool:
        return self.record.get("type") == "result" and bool(self.record.get("ok"))

    @property
    def store_miss(self) -> bool:
        return int((self.record.get("cache") or {}).get("misses", 0)) > 0


@dataclass
class LoopResult:
    replies: List[Reply] = field(default_factory=list)
    block_walls: List[float] = field(default_factory=list)
    wall: float = 0.0
    sources: Dict[Tuple[int, int], str] = field(default_factory=dict)


def _block_plan(rng: random.Random, first: bool) -> List[bool]:
    """Which of a block's requests are new networks (True) or repeats."""
    plan = [True] * NEW_PER_BLOCK + [False] * (BLOCK - NEW_PER_BLOCK)
    rng.shuffle(plan)
    if first and not plan[0]:  # a connection's first request has no history
        plan[plan.index(True)] = False
        plan[0] = True
    return plan


def closed_loop(
    host: str,
    port: int,
    seed: int,
    connections: int,
    seconds: float,
    min_blocks: int,
    max_blocks: Optional[int] = None,
) -> LoopResult:
    """Run ``connections`` clients, each waiting for its reply before sending on.

    Each client works through whole blocks until ``seconds`` have passed
    and it has done at least ``min_blocks`` (and at most ``max_blocks``),
    but never past :data:`GRACE` seconds after the deadline.
    """
    result = LoopResult()
    lock = threading.Lock()
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(conn: int) -> None:
        rng = random.Random(f"svc-order:{seed}:{conn}")
        history: List[int] = []
        blocks = 0
        while blocks < min_blocks or time.perf_counter() < deadline:
            if max_blocks is not None and blocks >= max_blocks:
                break
            if time.perf_counter() > deadline + GRACE:
                break
            block_start = time.perf_counter()
            for new in _block_plan(rng, first=not history):
                index = len(history) if new else rng.choice(history)
                blif = layered_network(conn, index)
                payload = {"op": "map", "flow": "hyde", "k": 5, "blif": blif}
                t0 = time.perf_counter()
                try:
                    record = call(host, port, payload, REQUEST_TIMEOUT)
                except (OSError, ValueError) as exc:
                    record = {"type": "error", "code": "client", "error": str(exc)}
                rtt = time.perf_counter() - t0
                if new:
                    history.append(index)
                with lock:
                    result.sources[(conn, index)] = blif
                    result.replies.append(Reply(conn, index, new, rtt, record))
            with lock:
                result.block_walls.append(time.perf_counter() - block_start)
            blocks += 1

    def guarded(conn: int) -> None:
        try:
            client(conn)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return result
