"""Validation of the ``workers`` argument.

Every computation in the package runs in one process; ``workers`` is still
accepted and validated so that callers passing it keep working, and the
output never depends on it.
"""

from __future__ import annotations

from .errors import check_int


def check_workers(workers: int) -> int:
    return check_int(workers, "workers must be a positive integer", lo=1)
