"""Shared fixtures for the northbound service-plane tests."""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

import pytest

from repro import obs
from repro.lte.phy.channel import FixedCqi
from repro.lte.ue import Ue
from repro.nb.client import NorthboundClient
from repro.nb.server import NorthboundServer
from repro.nb.service import NorthboundService
from repro.sim.simulation import Simulation


@pytest.fixture(autouse=True)
def _reset_obs():
    yield
    obs.disable()


def build_sim(n_ues: int = 1) -> Simulation:
    """One eNB + agent + *n_ues* UEs, master attached."""
    sim = Simulation(with_master=True)
    enb = sim.add_enb()
    sim.add_agent(enb, rtt_ms=2.0)
    for i in range(n_ues):
        sim.add_ue(enb, Ue(f"20893000000{i:04d}", FixedCqi(12)))
    return sim


@pytest.fixture
def sim():
    return build_sim()


@pytest.fixture
def service(sim):
    svc = NorthboundService(sim.master)
    svc.attach()
    yield svc
    svc.detach()


def http_request(method: str, path: str, body: Optional[dict] = None,
                 headers: Tuple[str, ...] = ()) -> bytes:
    """One raw HTTP/1.1 request."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    if payload:
        head.append(f"Content-Length: {len(payload)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


class RawHttp:
    """A raw-socket client for tests that step the simulation on the
    test thread: send, ``sim.run``, then read what the pump wrote."""

    def __init__(self, host: str, port: int, *,
                 rcvbuf: Optional[int] = None) -> None:
        self.sock = socket.socket()
        if rcvbuf is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(5.0)
        self.sock.connect((host, port))
        self._buf = b""

    def send(self, *requests: bytes) -> None:
        self.sock.sendall(b"".join(requests))

    def answered(self) -> bool:
        """Whether any bytes have come back."""
        return bool(self._buf or select.select([self.sock], [], [], 0)[0])

    def _read_until(self, done) -> None:
        while not done():
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self._buf += data

    def response(self) -> Tuple[int, Dict[str, str], bytes]:
        """The next complete response: (status, headers, body)."""
        self._read_until(lambda: b"\r\n\r\n" in self._buf)
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        self._buf = rest
        self._read_until(lambda: len(self._buf) >= length)
        body, self._buf = self._buf[:length], self._buf[length:]
        return int(lines[0].split(" ")[1]), headers, body

    def json(self) -> Tuple[int, dict]:
        status, _, body = self.response()
        return status, json.loads(body)

    def items(self) -> List[dict]:
        """Every complete JSONL item that has arrived so far."""
        while select.select([self.sock], [], [], 0)[0]:
            data = self.sock.recv(1 << 16)
            if not data:
                break
            self._buf += data
        *lines, self._buf = self._buf.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def close(self) -> None:
        self.sock.close()


class LiveServer:
    """A running sim + HTTP server, ticking on a background thread."""

    def __init__(self, sim: Simulation, service: NorthboundService,
                 server: NorthboundServer, host: str, port: int) -> None:
        self.sim = sim
        self.service = service
        self.server = server
        self.host = host
        self.port = port
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drive, daemon=True)
        self._thread.start()

    def _drive(self) -> None:
        while not self._stop.is_set():
            self.sim.run(20)
            time.sleep(0.001)

    def client(self, **kwargs) -> NorthboundClient:
        return NorthboundClient(self.host, self.port, **kwargs)

    def agent_id(self) -> int:
        """The first agent's id, once the RIB holds it and its cells
        (the cell config reply lands after the agent joins)."""
        rib = self.sim.master.rib
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            ids = rib.agent_ids()
            if ids and rib.agent(ids[0]).cells:
                return ids[0]
            time.sleep(0.01)
        raise AssertionError("agent and its cells never joined the RIB")

    def shutdown(self) -> None:
        self._stop.set()
        self._thread.join(5.0)
        self.server.stop()
        self.service.detach()


@pytest.fixture
def live(sim, service):
    server = NorthboundServer(service)
    host, port = server.start()
    live = LiveServer(sim, service, server, host, port)
    yield live
    live.shutdown()
