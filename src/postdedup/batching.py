"""Bounded-concurrency batch dispatch with retry and backoff.

Shared by the translation and embedding clients: items are cut into
batches, at most `max_in_flight` batches are outstanding at any moment,
and results are reassembled in submission order regardless of completion
order. Transient backend failures are retried with exponential backoff
and full jitter; a server's Retry-After hint is honoured up to the backoff
cap, and a longer one ends the retries at once.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import BackendUnavailable, ConfigError, RateLimited

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    attempts: int = 5
    backoff_base: float = 0.5  # seconds, doubled per attempt
    backoff_cap: float = 30.0

    def sleep_before(self, attempt: int, retry_after: float | None = None) -> float:
        # Full jitter: uniform in [0, base * 2^attempt], floored by any
        # server-provided retry-after hint.
        ceiling = min(self.backoff_base * (2**attempt), self.backoff_cap)
        delay = random.uniform(0.0, ceiling)
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay


def call_with_retry(fn: Callable[[], R], policy: RetryPolicy) -> R:
    last_error: Exception | None = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except RateLimited as err:
            if err.retry_after is not None and err.retry_after > policy.backoff_cap:
                raise  # a wait past the cap would stall the run; give up now
            last_error = err
            if attempt + 1 < policy.attempts:
                time.sleep(policy.sleep_before(attempt, err.retry_after))
        except BackendUnavailable as err:
            last_error = err
            if attempt + 1 < policy.attempts:
                time.sleep(policy.sleep_before(attempt))
    assert last_error is not None
    raise last_error


def _retry_after(value: str | None) -> float | None:
    # Only the delay-seconds form is honored: an HTTP date is ignored, and
    # so is a number that is not finite and non-negative ("inf", "nan", "-1").
    try:
        seconds = float(value) if value else None
    except ValueError:
        return None
    return seconds if seconds is not None and 0 <= seconds < float("inf") else None


def check_endpoint(endpoint: str) -> str:
    """`endpoint` if it is an http(s) URL; anything else is a ConfigError, not a retry."""
    if not endpoint.startswith(("http://", "https://")):
        raise ConfigError(f"malformed endpoint {endpoint!r}")
    return endpoint


def post_json(
    session, endpoint: str, body: dict, *, timeout: float, what: str, headers: dict | None = None
) -> dict:
    """POST `body` as JSON and return the JSON object the service answers with.

    Every failure lands in the backend taxonomy so the retry policy can
    engage: HTTP 429 is RateLimited with any Retry-After seconds; an
    unreachable endpoint, any other non-200 status, or a body that is not
    a JSON object is BackendUnavailable.
    """
    import requests

    try:
        response = session.post(endpoint, json=body, headers=headers or {}, timeout=timeout)
    except requests.RequestException as err:
        raise BackendUnavailable(f"{what} endpoint unreachable: {err}") from err
    if response.status_code == 429:
        raise RateLimited(_retry_after(response.headers.get("Retry-After")))
    if response.status_code != 200:
        raise BackendUnavailable(f"{what} endpoint returned HTTP {response.status_code}")
    try:
        payload = response.json()
    except ValueError as err:
        raise BackendUnavailable(f"{what} endpoint returned a body that is not JSON") from err
    if not isinstance(payload, dict):
        raise BackendUnavailable(f"{what} endpoint returned JSON that is not an object")
    return payload


def list_field(payload: dict, key: str, what: str) -> list:
    """`payload[key]`, which must be a list, else BackendUnavailable."""
    value = payload.get(key)
    if not isinstance(value, list):
        raise BackendUnavailable(f"{what} endpoint returned no {key!r} list")
    return value


def map_batches(
    items: Sequence[T],
    batch_fn: Callable[[list[T]], list[R]],
    *,
    batch_size: int,
    max_in_flight: int,
    retry: RetryPolicy | None = None,
) -> list[R]:
    """Apply `batch_fn` over fixed-size slices of `items`, order-preserving.

    At most `max_in_flight` calls run concurrently. Each batch is retried
    per the policy, also when it returns a different number of results
    than it was given; the first batch that exhausts its retries propagates.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be positive")
    retry = retry or RetryPolicy()
    batches = [list(items[i : i + batch_size]) for i in range(0, len(items), batch_size)]
    if not batches:
        return []

    def run(batch: list[T]) -> list[R]:
        def attempt() -> list[R]:
            out = batch_fn(batch)
            if len(out) != len(batch):
                raise BackendUnavailable(
                    f"backend returned {len(out)} results for a batch of {len(batch)}"
                )
            return out

        return call_with_retry(attempt, retry)

    if max_in_flight == 1:
        results = [run(batch) for batch in batches]
    else:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            results = list(pool.map(run, batches))
    return [item for batch in results for item in batch]


__all__ = ["RetryPolicy", "call_with_retry", "list_field", "map_batches", "post_json"]
