"""CTC likelihood (a numpy log-space forward recursion,
``core.forward_log_likelihood``) and greedy decoding.
"""

from .core import (
    BLANK,
    CtcInstance,
    collapse,
    ctc_greedy_decode,
    ctc_log_likelihood,
    min_frames,
)

#: Name of the forward recursion in provenance records; there is one.
BACKEND_NAME = "forward_py"

__all__ = [
    "BLANK",
    "BACKEND_NAME",
    "CtcInstance",
    "collapse",
    "ctc_greedy_decode",
    "ctc_log_likelihood",
    "min_frames",
]
