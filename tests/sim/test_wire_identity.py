"""Whole-run wire identity: every frame a deployment puts on the wire.

The golden frames (``tests/core/golden_frames.json``) pin single
messages; this pins whole runs.  Each case hashes every frame
``codec.encode`` returns, length-prefixed and in order, over 300 TTIs of
one deployment: ``large_scale`` in miniature (static channels, CBR load,
periodic full-statistics subscriptions) and the differential suite's
``fading_poisson_pf`` (fading channels, Poisson load, PF scheduling, so
per-UE state moves every period).  A change that claims to keep
behaviour must keep both digests; one that changes what is sent, when,
or in which order moves them, and records the new values here with the
reason in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.protocol import codec
from repro.sim.scenarios import large_scale
from tests.sim.test_differential import fading_poisson_pf

TTIS = 300


def large_scale_4x16():
    return large_scale(n_enbs=4, ues_per_enb=16).sim


def fading_pf():
    sim, _, _ = fading_poisson_pf()
    return sim


PINNED = {
    # (frames encoded, sha256 over them)
    "large_scale_4x16": (
        434, "c396e7b1e2b69b958a6d499a8003bd4359bcef4e4bcf6fa4eedadfc5fb210a42"),
    "fading_pf": (
        66, "61a325d5cab8ff0e6663fdc9da7543c4e0f558a93d3a24d3c68c7f755d21a130"),
}


def frame_digest(build, monkeypatch):
    """``(frames, sha256)`` of every frame encoded while *build*'s
    simulation runs :data:`TTIS` TTIs."""
    digest = hashlib.sha256()
    frames = 0
    encode = codec.encode

    def hashing_encode(message):
        nonlocal frames
        frame = encode(message)
        digest.update(len(frame).to_bytes(4, "big"))
        digest.update(frame)
        frames += 1
        return frame

    monkeypatch.setattr(codec, "encode", hashing_encode)
    sim = build()
    try:
        sim.run(TTIS)
    finally:
        sim.close()
    return frames, digest.hexdigest()


@pytest.mark.parametrize("build", [large_scale_4x16, fading_pf],
                         ids=lambda f: f.__name__)
def test_whole_run_frames_are_pinned(build, monkeypatch):
    assert frame_digest(build, monkeypatch) == PINNED[build.__name__]
