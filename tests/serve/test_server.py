"""TCP front door: wire protocol round trips on an ephemeral port."""

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.serve.server import SweepServer, request
from repro.serve.service import SweepService
from repro.stream.config import StreamConfig
from repro.streamer.runner import StreamerRunner

ELEMENTS = 10_000


def _server():
    return SweepServer(SweepService(jobs=1, shard_tasks=32), port=0)


def test_ping_sweep_stats_round_trip():
    async def body():
        async with _server() as srv:
            ping = await request(srv.host, srv.port, {"op": "ping"})
            sweep = await request(srv.host, srv.port, {
                "kernels": ["triad"], "array_size": ELEMENTS})
            again = await request(srv.host, srv.port, {
                "kernels": ["triad"], "array_size": ELEMENTS})
            stats = await request(srv.host, srv.port, {"op": "stats"})
        return ping, sweep, again, stats

    ping, sweep, again, stats = asyncio.run(body())
    assert ping == {"ok": True, "op": "ping"}
    assert sweep["ok"] and sweep["source"] == "executed"
    assert again["ok"] and again["source"] == "lru"
    assert sweep["results"] == again["results"]
    # the wire payload is the canonical ResultSet document
    one_shot = StreamerRunner(
        config=StreamConfig(array_size=ELEMENTS)).run_all(
            kernels=("triad",))
    assert sweep["results"] == json.loads(one_shot.to_json())
    assert stats["ok"] and stats["stats"]["executed"] == 1


def test_errors_are_structured_replies():
    async def body():
        async with _server() as srv:
            bad_json = await request(srv.host, srv.port,
                                     {"op": "no-such-op"})
            bad_field = await request(srv.host, srv.port,
                                      {"frobnicate": 1})
            bad_kernel = await request(srv.host, srv.port,
                                       {"kernels": ["warp"]})
        return bad_json, bad_field, bad_kernel

    bad_json, bad_field, bad_kernel = asyncio.run(body())
    assert not bad_json["ok"] and bad_json["error"] == "BadRequest"
    assert not bad_field["ok"] and "unknown" in bad_field["message"]
    assert not bad_kernel["ok"] and bad_kernel["error"] == "BenchmarkError"


def test_malformed_line_gets_reply_not_disconnect():
    async def body():
        async with _server() as srv:
            reader, writer = await asyncio.open_connection(
                srv.host, srv.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                first = json.loads(await reader.readline())
                # the connection survives for a valid follow-up
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                second = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
        return first, second

    first, second = asyncio.run(body())
    assert not first["ok"] and first["error"] == "BadRequest"
    assert second == {"ok": True, "op": "ping"}


def _alive(pid: int) -> bool:
    """The process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigterm_exits_cleanly_and_reaps_the_warm_pool():
    """``streamer serve`` handles SIGTERM like Ctrl-C: it exits 0 and
    its warm pool's workers do not outlive it."""
    me = os.getpid()
    if not Path(f"/proc/{me}/task/{me}/children").exists():
        pytest.skip("no /proc/<pid>/task/<pid>/children on this kernel")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.streamer", "serve", "--port", "0",
         "--jobs", "2", "--no-cache"],
        stdout=subprocess.PIPE, text=True, env=env)
    children: list[int] = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "the server printed no banner within 60 s"
        banner = proc.stdout.readline()
        port = int(re.search(r":(\d+) \(", banner).group(1))
        reply = asyncio.run(request(
            "127.0.0.1", port,
            {"kernels": ["triad"], "array_size": ELEMENTS}))
        assert reply["ok"] and reply["results"]["records"], reply
        children = [int(pid) for pid in Path(
            f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()]
        assert children, "the warm pool must have spawned workers"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
