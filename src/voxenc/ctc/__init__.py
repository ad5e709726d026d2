"""CTC likelihood (a numpy log-space forward recursion,
``core.forward_log_likelihood``), greedy decoding and WER/CER.
"""

from .core import (
    BLANK,
    CtcInstance,
    char_error_rate,
    collapse,
    ctc_greedy_decode,
    ctc_log_likelihood,
    min_frames,
    word_error_rate,
)

#: Name of the forward recursion in provenance records; there is one.
BACKEND_NAME = "forward_py"

__all__ = [
    "BLANK",
    "BACKEND_NAME",
    "CtcInstance",
    "char_error_rate",
    "collapse",
    "ctc_greedy_decode",
    "ctc_log_likelihood",
    "min_frames",
    "word_error_rate",
]
