"""N1 — live-runtime loopback microbenchmarks: the socket path under the stack.

Two quantities for the `repro.net` subsystem: codec throughput on a
protocol-shaped hot frame (fast path vs the generic self-describing
path), and raw codec+socket frame throughput (UDP loopback, no protocol
above).  The live stack end to end — latency, takeover, CPU per request
— is measured by ``python -m bench run``.

Results persist to ``BENCH_net_loopback.json``; its ``anchor_pre_*``
sections are the same workloads measured on the same machine before the
changes they name, kept as before/after baselines.
"""

import asyncio
import os
import time

from repro.gcs.messages import OrderRequest, RequestId, Sequenced
from repro.gcs.view import ViewId
from repro.net.codec import WireEnvelope, decode_frame, encode_frame
from repro.net.transport import UdpLoopbackTransport


# ---------------------------------------------------------------------------
# codec: fast path vs generic on the hottest frame shape
# ---------------------------------------------------------------------------
def _hot_envelope() -> WireEnvelope:
    """The frame the live cluster sends most: an ordered request inside
    the envelope shell — every field on the struct-packed fast path."""
    rid = RequestId("c0", 1, 42)
    order = OrderRequest(rid, "unit:demo", {"op": "rate", "value": 24.0})
    return WireEnvelope(
        sender="s0",
        receiver="s1",
        kind="gcs",
        size=33,
        payload=Sequenced(ViewId(3, "s0"), 11, order),
    )


def _codec_rates(n: int, fast: bool) -> dict:
    envelope = _hot_envelope()
    started = time.perf_counter()
    for _ in range(n):
        frame = encode_frame(envelope, fast=fast)
    encode_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(n):
        decode_frame(frame)
    decode_seconds = time.perf_counter() - started
    return {
        "frame_bytes": len(frame),
        "encodes_per_second": round(n / encode_seconds, 1),
        "decodes_per_second": round(n / decode_seconds, 1),
    }


def test_codec_fast_vs_generic(benchmark, bench_persist):
    n = 20_000 if os.environ.get("REPRO_BENCH_FULL") != "1" else 200_000

    def once():
        return {
            "rounds": n,
            "fast": _codec_rates(n, fast=True),
            "generic": _codec_rates(n, fast=False),
        }

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    fast, generic = result["fast"], result["generic"]
    assert fast["frame_bytes"] <= generic["frame_bytes"]
    bench_persist("net_loopback", {"codec": result})
    print(
        f"\ncodec on the hot envelope: fast "
        f"{fast['encodes_per_second']:.0f} enc/s "
        f"{fast['decodes_per_second']:.0f} dec/s ({fast['frame_bytes']}B) "
        f"vs generic {generic['encodes_per_second']:.0f} enc/s "
        f"{generic['decodes_per_second']:.0f} dec/s "
        f"({generic['frame_bytes']}B)"
    )


# ---------------------------------------------------------------------------
# raw frame throughput (codec + UDP loopback, no protocol)
# ---------------------------------------------------------------------------
async def _pump_frames(n_frames: int) -> dict:
    sender, receiver = UdpLoopbackTransport("tx"), UdpLoopbackTransport("rx")
    got = []
    receiver.on_frame = got.append
    await sender.start()
    await receiver.start()
    sender.set_peer("rx", *receiver.address)
    frame = encode_frame(
        WireEnvelope(
            sender="tx",
            receiver="rx",
            kind="bench",
            size=1,
            payload={"op": "rate", "value": 30.0},
        )
    )
    loop = asyncio.get_running_loop()
    started = loop.time()
    for i in range(n_frames):
        sender.send("rx", frame)
        # flow control: cap the frames in flight so the kernel's UDP
        # receive buffer never overflows (we measure the path, not drops)
        while i + 1 - len(got) > 128:
            await asyncio.sleep(0)
    deadline = loop.time() + 30.0
    while len(got) < n_frames and loop.time() < deadline:
        await asyncio.sleep(0)
    elapsed = loop.time() - started
    await sender.close()
    await receiver.close()
    return {
        "frames_offered": n_frames,
        "frames_delivered": len(got),
        "frame_bytes": len(frame),
        "wall_seconds": round(elapsed, 4),
        "frames_per_second": round(len(got) / elapsed, 1),
    }


def test_raw_frame_throughput(benchmark, bench_persist):
    n_frames = 5_000 if os.environ.get("REPRO_BENCH_FULL") != "1" else 50_000

    def once():
        return asyncio.run(_pump_frames(n_frames))

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    bench_persist("net_loopback", {"raw_frame_throughput": result})
    print(
        f"\nloopback UDP: {result['frames_delivered']}/{result['frames_offered']} "
        f"frames of {result['frame_bytes']}B in {result['wall_seconds']}s "
        f"({result['frames_per_second']:.0f} frames/s)"
    )

