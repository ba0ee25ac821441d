"""API-key authentication and per-tenant request-rate limiting.

Each :class:`ApiKey` binds a secret to a *tenant* — the logical client
the serving layer's admission control budgets.  The authenticator owns
one long-lived :class:`~repro.engine.serving.AdmissionController` built
from every key's :class:`~repro.engine.serving.TenantBudget`, which the
server binds to the engine's persistent executor
(``engine.serving_executor(admission=...)``): I/O budgets therefore
persist across requests and connections, exactly like a caller-held
controller on that executor in the embedded API.

On top of the I/O budget each key may carry a **request-rate** limit —
a second token bucket denominated in requests per second, not block
transfers.  The two guard different resources: the rate limit bounds how
often a client may knock (cheap requests included, enforced *before*
parsing the body), while the I/O budget bounds how much data its
admitted queries may move.  A key without one is unlimited on that axis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.engine.serving.admission import (AdmissionController, TenantBudget,
                                            TokenBucket)
from repro.engine.server.protocol import HTTPError, HTTPRequest


@dataclass(frozen=True)
class ApiKey:
    """One credential: secret, tenant, and the tenant's limits.

    Parameters
    ----------
    key:
        The secret the client presents (``Authorization: Bearer <key>``,
        ``X-Api-Key`` header, or ``api_key`` query parameter).
    tenant:
        Tenant the key maps to; admission control and per-tenant metrics
        key off this.  Several keys may share a tenant (and then share
        its I/O bucket), but they must agree on the budget.
    budget:
        I/O admission budget for the tenant (None = unlimited I/O).
    requests_per_s:
        Request-rate limit for this key (None = unlimited rate).
    request_burst:
        Rate-bucket capacity; defaults to 2 seconds of rate, floored at
        one request so a tiny rate still admits a first request.
    """

    key: str
    tenant: str
    budget: Optional[TenantBudget] = None
    requests_per_s: Optional[float] = None
    request_burst: Optional[float] = None

    def make_rate_bucket(self) -> Optional[TokenBucket]:
        if self.requests_per_s is None:
            return None
        burst = self.request_burst
        if burst is None:
            burst = max(1.0, 2.0 * self.requests_per_s)
        return TokenBucket(rate=self.requests_per_s, burst=burst)


class ApiKeyAuthenticator:
    """Key lookup + the admission controller all keys share.

    Built once at server start; ``admission`` is handed to the engine's
    long-lived executor so every HTTP request draws from the same
    per-tenant buckets.
    """

    def __init__(self, keys: Iterable[ApiKey],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._keys: Dict[str, ApiKey] = {}
        self._rate_buckets: Dict[str, TokenBucket] = {}
        budgets: Dict[str, TenantBudget] = {}
        for entry in keys:
            if entry.key in self._keys:
                raise ValueError("duplicate API key %r" % entry.key)
            if entry.budget is not None:
                known = budgets.get(entry.tenant)
                if known is not None and known != entry.budget:
                    raise ValueError(
                        "tenant %r is bound to two different budgets; keys "
                        "sharing a tenant share its I/O bucket and must "
                        "agree" % entry.tenant)
                budgets[entry.tenant] = entry.budget
            self._keys[entry.key] = entry
            bucket = entry.make_rate_bucket()
            if bucket is not None:
                self._rate_buckets[entry.key] = bucket
        self.admission = AdmissionController(budgets)

    def authenticate(self, request: HTTPRequest) -> ApiKey:
        """The key a request presents, or a structured 401."""
        secret: Optional[str] = None
        header = request.headers.get("authorization", "")
        if header.lower().startswith("bearer "):
            secret = header[len("bearer "):].strip()
        if not secret:
            secret = request.headers.get("x-api-key") or None
        if not secret:
            secret = request.query.get("api_key") or None
        if not secret:
            raise HTTPError(401, "missing_api_key",
                            "present an API key via 'Authorization: Bearer "
                            "<key>', an 'X-Api-Key' header, or an 'api_key' "
                            "query parameter")
        entry = self._keys.get(secret)
        if entry is None:
            raise HTTPError(401, "unknown_api_key", "unrecognized API key")
        return entry

    def check_rate(self, key: ApiKey) -> None:
        """Charge one request against the key's rate bucket (429 if dry)."""
        bucket = self._rate_buckets.get(key.key)
        if bucket is None:
            return
        now = self._clock()
        if not bucket.try_consume(1.0, now):
            retry = bucket.seconds_until(1.0, now)
            raise HTTPError(429, "rate_limited",
                            "request rate limit exceeded for this key; "
                            "retry in %.2fs" % retry,
                            retry_after_s=retry)
