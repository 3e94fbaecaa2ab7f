"""Validation of the ``workers`` argument.

Every computation in the package runs in one process; ``workers`` is still
accepted and validated so that callers passing it keep working, and the
output never depends on it.
"""

from __future__ import annotations

from .errors import ValidationError


def check_workers(workers: int) -> int:
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    return workers
