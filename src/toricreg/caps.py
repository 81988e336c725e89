"""Work caps guarding the exponential-cost operations.

Point enumeration holds |X|*s cells, |X| from the degree formula, and
residue reachability walks (q-1)**(n-m+gamma-1) reduced residues, one
axis per kept vertex; the state cap counts both.  The rank route
eliminates over GF(q) on the base-p digits of the entries: |X|*k work
rows, k = log_p q, one column per distinct row, and a k x k multiplier
block per row and pivot, stored row-major: its multipliers fill |X|*k
rows of (distinct rows)*k cells.  Only ``hilbert`` reads the cap on those
cells, and it refuses before any elimination.  Both caps refuse loudly
(TooLargeError) instead of running forever.  The environment variable
TORICREG_MAX_STATES overrides both caps.  ``count_text`` writes the
counts they refuse, which can pass Python's limit on digits in a str.
"""

import os

ENV_VAR = "TORICREG_MAX_STATES"

DEFAULT_STATE_CAP = 10_000_000
# multipliers take 4 bytes a cell where 256*k*(p-1)**2 + p < 2**24 (float32:
# p <= 251 at k = 1, p <= 181 at k = 2), 8 otherwise: up to 800 MB at this cap.
# Each pivot writes one column block of every row, so the pages of each row
# become resident as the rank passes them
DEFAULT_MATRIX_CAP = 100_000_000


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


def state_cap():
    """Cap on the point array's |X|*s cells and on the
    (q-1)**(n-m+gamma-1) reduced residue tensors."""
    return _env_cap() or DEFAULT_STATE_CAP


def matrix_cap():
    """Cap on rank-echelon cells (rows times columns)."""
    return _env_cap() or DEFAULT_MATRIX_CAP


def count_text(n: int) -> str:
    """n in decimal; past the digits Python converts to a str (4300 by
    default), its first five digits and its power of ten, as 1.0217e+4815."""
    try:
        return str(n)
    except ValueError:
        pass
    e = n.bit_length() * 30102 // 100000  # at most floor(log10 n)
    lead = n // 10 ** (e - 4)
    while lead >= 100_000:
        lead //= 10
        e += 1
    return f"{lead // 10_000}.{lead % 10_000:04d}e+{e}"
