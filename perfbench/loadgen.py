"""The load generator: one process, at most two keep-alive connections.

The open loop sends each request at its scheduled due time whatever
the replies do, so a stalled server builds a queue; a request's latency
is measured from its due time, which charges that queue to the requests
stuck behind it.  How late the generator itself sent each request (its
lag) is reported beside it.  The closed loop sends a connection's next
request only when its previous reply is in.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass


class Connection:
    """A minimal JSON-over-HTTP client on one keep-alive socket."""

    def __init__(self, url: str, timeout: float = 120.0):
        parsed = urllib.parse.urlsplit(url)
        self._args = (parsed.hostname, parsed.port)
        self.timeout = timeout
        self._http = None

    def request(self, method: str, path: str, payload=None) -> tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        if self._http is None:
            self._http = http.client.HTTPConnection(*self._args, timeout=self.timeout)
        try:
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        return response.status, decoded

    def release(self, item: dict) -> tuple[int, dict]:
        return self.request(
            "POST",
            "/v1/release",
            {"tenant": item["tenant"], "request": item["request"]},
        )

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


@dataclass
class Outcome:
    """One request: its schedule, its timing and the server's answer."""

    index: int
    item: dict
    due: float
    sent: float
    done: float
    status: int
    reply: dict

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete reply."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent the request after its due time."""
        return self.sent - self.due


def _send(connection, item) -> tuple[int, dict]:
    try:
        return connection.release(item)
    except (OSError, http.client.HTTPException) as error:
        return 0, {"error": repr(error)}


def open_loop(
    items: list[dict],
    connect,
    *,
    connections: int = 2,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> list[Outcome]:
    """Send ``items`` at ``start + item["due_s"]`` over ``connections``.

    ``connect()`` returns an object with ``release(item)`` and
    ``close()``.  Requests are taken in due order by whichever
    connection is free, so while both are busy the next request waits
    in the generator and its latency grows from its due time.
    """
    outcomes: list[Outcome | None] = [None] * len(items)
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    start = clock()

    def worker() -> None:
        connection = connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                item = items[index]
                due = start + item["due_s"]
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                status, reply = _send(connection, item)
                outcomes[index] = Outcome(
                    index, item, due, sent, clock(), status, reply
                )
        finally:
            connection.close()

    _run_threads(worker, connections)
    return outcomes


def closed_loop(
    items: list[dict],
    connect,
    *,
    connections: int = 2,
    seconds: float,
    clock=time.perf_counter,
) -> tuple[list[Outcome], float]:
    """Send ``items`` back to back on each connection for ``seconds``.

    Returns the completed outcomes and the elapsed wall time; a
    request still in flight when time is up completes and counts.
    """
    outcomes: list[Outcome] = []
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    start = clock()
    deadline = start + seconds

    def worker() -> None:
        connection = connect()
        try:
            while clock() < deadline:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sent = clock()
                status, reply = _send(connection, items[index])
                with lock:
                    outcomes.append(
                        Outcome(index, items[index], sent, sent, clock(), status, reply)
                    )
        finally:
            connection.close()

    _run_threads(worker, connections)
    return outcomes, clock() - start


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
