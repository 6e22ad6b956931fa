"""Control delegation: packaging and loading pushed VSF code.

In the paper, VSF updation pushes "the actual code in the form of a
shared library that has been compiled against the agent architecture".
A Python reproduction cannot ship an ``.so``, so the code-carrier is a
*constructor spec*: the name of a factory registered in the agent's
loader plus its parameters, serialized as JSON and padded to a
representative binary size.  The lifecycle is identical to the paper's
-- pushed once over the FlexRAN protocol, stored in the agent cache,
swapped at runtime by policy reconfiguration -- and the security
posture matches the paper's signed-driver discussion: an agent only
instantiates factories it already trusts (its registry), never
arbitrary code from the wire.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.lte.mac.qos import QosScheduler
from repro.lte.mac.schedulers import (
    SCHEDULER_REGISTRY,
    SlicedScheduler,
)

DEFAULT_BLOB_PAD_BYTES = 16384
"""Default padding so a pushed VSF has the wire footprint of a small
compiled shared library (~16 KiB), keeping the one-time delegation
cost in the signaling accounting realistic."""


class VsfLoadError(Exception):
    """A pushed VSF blob could not be instantiated."""


class VsfFactoryRegistry:
    """Trusted factory registry: the agent-side 'ABI' for pushed code."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., Callable]] = {}
        self._install_builtins()

    def _install_builtins(self) -> None:
        for name, cls in SCHEDULER_REGISTRY.items():
            self.register(f"scheduler:{name}", cls)
        self.register("scheduler:sliced", SlicedScheduler)
        self.register("scheduler:qos_aware", QosScheduler)

    def register(self, name: str, factory: Callable[..., Callable]) -> None:
        """Trust a new factory (the 'certification' step)."""
        if not name:
            raise ValueError("factory name must be non-empty")
        self._factories[name] = factory

    def names(self) -> list:
        return sorted(self._factories)

    def instantiate(self, name: str, params: Dict[str, Any]) -> Callable:
        try:
            factory = self._factories[name]
        except KeyError:
            raise VsfLoadError(
                f"factory {name!r} is not trusted by this agent; known: "
                f"{self.names()}") from None
        try:
            return factory(**params)
        except TypeError as exc:
            raise VsfLoadError(
                f"factory {name!r} rejected parameters {params}: {exc}"
            ) from exc


DEFAULT_REGISTRY = VsfFactoryRegistry()


def pack_vsf(factory: str, params: Optional[Dict[str, Any]] = None, *,
             pad_to: int = DEFAULT_BLOB_PAD_BYTES) -> bytes:
    """Serialize a VSF constructor spec into a pushable blob."""
    spec = json.dumps({"factory": factory, "params": params or {}})
    blob = spec.encode("utf-8")
    if pad_to > len(blob):
        blob += b"\x00" * (pad_to - len(blob))
    return blob


def load_vsf(blob: bytes,
             registry: Optional[VsfFactoryRegistry] = None) -> Callable:
    """Instantiate a pushed VSF blob through the trusted registry."""
    registry = registry or DEFAULT_REGISTRY
    try:
        spec = json.loads(blob.rstrip(b"\x00").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise VsfLoadError(f"malformed VSF blob: {exc}") from exc
    if not isinstance(spec, dict) or "factory" not in spec:
        raise VsfLoadError("VSF blob must contain a 'factory' field")
    params = spec.get("params") or {}
    if not isinstance(params, dict):
        raise VsfLoadError("VSF 'params' must be a mapping")
    return registry.instantiate(str(spec["factory"]), params)
