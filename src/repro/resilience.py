"""Shared resilience primitives: deterministic backoff and atomic writes.

Every fault-tolerant layer in the repo (the sweep runtime in
:mod:`repro.experiments.runtime`, the trace fetcher in
:mod:`repro.traces.source`, the result writers) needs the same two
building blocks:

* **Capped exponential backoff with deterministic jitter.**  Retrying
  at fixed intervals synchronizes colliding clients; random jitter
  fixes that but breaks reproducibility.  :func:`backoff_delay` derives
  the jitter from a SHA-256 hash of the retry key and the attempt
  number, so two runs of the same sweep back off at *identical*
  moments while distinct points still spread out.

* **Atomic file replacement.**  A file that is rewritten in place can
  be observed torn by a crash or a concurrent reader.
  :func:`atomic_write_text` writes to a same-directory temp file and
  ``os.replace``\\ s it over the target, the idiom the trace cache has
  used since it was introduced; result files and sweep checkpoints now
  share the one implementation.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Type, Union


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff: ``base * factor**(attempt-1)``.

    The computed delay is scaled by a deterministic jitter in
    ``[0.5, 1.0)`` (see :func:`backoff_delay`), so the configured
    values are upper bounds per attempt.
    """

    base_delay: float = 0.1
    factor: float = 2.0
    max_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0 or self.factor < 1.0:
            raise ValueError(
                "backoff wants base_delay >= 0, max_delay >= 0, factor >= 1"
            )


#: A zero-delay policy for tests and for callers that want bare retries.
NO_DELAY = BackoffPolicy(base_delay=0.0, max_delay=0.0)


def deterministic_jitter(key: str, attempt: int) -> float:
    """A stable pseudo-random fraction in ``[0, 1)`` for (key, attempt)."""
    digest = hashlib.sha256(f"{key}:{int(attempt)}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_delay(policy: BackoffPolicy, key: str, attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based) of ``key``.

    Exponential in the attempt number, capped at ``max_delay``, and
    jittered deterministically into ``[raw/2, raw)`` so that (a) the
    same sweep re-run backs off identically and (b) points that failed
    together do not retry in lockstep.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    raw = min(policy.max_delay, policy.base_delay * policy.factor ** (attempt - 1))
    return raw * (0.5 + 0.5 * deterministic_jitter(key, attempt))


def retry_call(
    fn: Callable,
    *,
    max_retries: int = 3,
    policy: BackoffPolicy = BackoffPolicy(),
    retriable: Tuple[Type[BaseException], ...] = (Exception,),
    should_retry: Optional[Callable[[BaseException], bool]] = None,
    key: str = "",
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn()`` with up to ``max_retries`` retries on failure.

    An exception is retried when it is an instance of ``retriable``
    *and* ``should_retry`` (if given) returns true for it; anything
    else propagates immediately.  ``on_retry(attempt, exc, delay)``
    is invoked before each backoff sleep -- the hook for logging.
    """
    attempt = 1
    while True:
        try:
            return fn()
        except retriable as exc:
            if should_retry is not None and not should_retry(exc):
                raise
            if attempt > max_retries:
                raise
            delay = backoff_delay(policy, key, attempt)
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)
            attempt += 1


def atomic_tmp_path(target: Union[str, Path]) -> Path:
    """A same-directory temp path whose suffix is the target's full name.

    Keeping the target name as the suffix means suffix-sniffing writers
    (gzip-by-``.gz``) treat both paths identically; the pid and thread
    prefix keeps concurrent writers (sweep worker processes, the
    service's job threads) from clobbering each other's temp files.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target.with_name(
        f".tmp{os.getpid()}-{threading.get_ident()}.{target.name}"
    )


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``.

    A crash mid-write leaves the previous file intact; readers never
    observe a torn file.  Parent directories are created on demand.
    """
    target = Path(path)
    tmp = atomic_tmp_path(target)
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()
