"""Blocking Python client for the northbound server.

A thin stdlib-only (``http.client``) wrapper used by the CLI smoke
mode, the benchmark harness, tests, and any script that wants to talk
to ``repro serve`` without hand-rolling HTTP.  Unary calls return
parsed JSON; :meth:`NorthboundClient.stream` yields decoded items from
a JSONL or SSE stream until closed.

Example::

    client = NorthboundClient("127.0.0.1", 8080)
    xid = client.send_policy(0, "rb_share: {0: 0.5, 1: 0.5}")["xid"]
    with client.stream("/v1/stream/events") as events:
        for item in events:
            print(item["class"], item["tti"])
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Iterator, List, Optional


class ClientError(Exception):
    """A non-2xx response from the northbound server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class StreamHandle:
    """An open JSONL/SSE stream; iterate to receive decoded items."""

    def __init__(self, conn: http.client.HTTPConnection,
                 response: http.client.HTTPResponse) -> None:
        self._conn = conn
        self._response = response
        self.subscription_id = response.getheader("X-Subscription-Id")
        self._sse = "text/event-stream" in (
            response.getheader("Content-Type") or "")

    def __iter__(self) -> Iterator[dict]:
        while True:
            line = self._response.readline()
            if not line:
                return  # server closed the stream
            line = line.strip()
            if not line:
                continue  # SSE record separator / keep-alive
            if self._sse:
                if not line.startswith(b"data: "):
                    continue  # ignore non-data SSE fields
                line = line[len(b"data: "):]
            yield json.loads(line)

    def read(self, n: int, timeout_items: Optional[int] = None
             ) -> List[dict]:
        """Collect the next *n* items (blocks on the socket)."""
        items: List[dict] = []
        for item in self:
            items.append(item)
            if len(items) >= n:
                break
        return items

    def close(self) -> None:
        try:
            self._response.close()
        finally:
            self._conn.close()

    def __enter__(self) -> "StreamHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NorthboundClient:
    """Unary + streaming access to one northbound server."""

    def __init__(self, host: str, port: int, *,
                 token: Optional[str] = None,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._headers: Dict[str, str] = {}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> dict:
        """One unary request; returns the decoded JSON body."""
        conn = self._connect()
        try:
            payload = None
            headers = dict(self._headers)
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            decoded = json.loads(raw) if raw else {}
            if response.status >= 400:
                raise ClientError(response.status,
                                  decoded.get("error", raw.decode(
                                      "utf-8", "replace")))
            return decoded
        finally:
            conn.close()

    def get(self, path: str) -> dict:
        return self.request("GET", path)

    def post(self, path: str, body: dict) -> dict:
        return self.request("POST", path, body)

    def delete(self, path: str) -> dict:
        return self.request("DELETE", path)

    def stream(self, path: str) -> StreamHandle:
        """Open a streaming endpoint; caller owns the handle."""
        conn = self._connect()
        conn.request("GET", path, headers=dict(self._headers))
        response = conn.getresponse()
        if response.status >= 400:
            raw = response.read()
            conn.close()
            try:
                message = json.loads(raw).get("error", "")
            except ValueError:
                message = raw.decode("utf-8", "replace")
            raise ClientError(response.status, message)
        return StreamHandle(conn, response)

    # -- convenience wrappers ---------------------------------------------

    def info(self) -> dict:
        return self.get("/v1/info")

    def agents(self) -> dict:
        return self.get("/v1/rib/agents")

    def subscriptions(self) -> dict:
        return self.get("/v1/subscriptions")

    def metrics(self) -> dict:
        return self.get("/v1/metrics")

    def send_policy(self, agent_id: int, text: str) -> dict:
        return self.post(f"/v1/agents/{agent_id}/policy", {"text": text})

    def set_prb_cap(self, agent_id: int, cell_id: int,
                    cap: Optional[int]) -> dict:
        return self.post(f"/v1/agents/{agent_id}/config/prb_cap",
                         {"cell_id": cell_id, "cap": cap})

    def unsubscribe(self, sub_id: int) -> dict:
        return self.delete(f"/v1/subscriptions/{sub_id}")
