"""Work caps guarding the exponential-cost operations.

Point enumeration and residue-reachability walk a state space of size
(q-1)**n.  The rank route fills one GF(p) echelon of |X|*k rows by
(distinct rows)*k columns, k = log_p q; only ``hilbert`` reads the cap
on its cells, and it refuses before any elimination.  Both caps refuse
loudly (TooLargeError) instead of running forever.  The environment
variable TORICREG_MAX_STATES overrides both caps.
"""

import os

ENV_VAR = "TORICREG_MAX_STATES"

DEFAULT_STATE_CAP = 10_000_000
DEFAULT_MATRIX_CAP = 100_000_000  # 400 MB of float32 multipliers


def _env_cap():
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}")
    return value


def state_cap(explicit=None):
    """Cap on (q-1)**n state spaces (enumeration, reach tables)."""
    if explicit is not None:
        return explicit
    return _env_cap() or DEFAULT_STATE_CAP


def matrix_cap(explicit=None):
    """Cap on rank-echelon cells (rows times columns)."""
    if explicit is not None:
        return explicit
    return _env_cap() or DEFAULT_MATRIX_CAP
