"""Per-column embedding quantization: the artifact tier's compression codec.

The serving memory bill is dominated by the embedding matrices, and the
reload bill by copying them.  Quantizing each *column* (embedding
dimension) independently to float16 or int8 with one float64 scale per
column cuts the stored bytes 4-8x while keeping the error *boundable*:
every column's codes live in a fixed range, so the absolute dequantization
error of any element is at most a known fraction of that column's scale.

:func:`column_error_bound` states that codec error; the codec tests pin
it.  Retrieval does not use it: quantized retrieval is exact over the
*dequantized* values, not the originals.
:class:`repro.tasks.topk.TopKEngine`, given the codes and their scales,
sweeps a float32 staging of the dequantized values, widens the selection
boundary by a bound on the float32 staging (measured per column at load)
and accumulation error against those values, and reranks the widened
margin in float64 — the
same sweep, margin and rerank as every other artifact, so the final lists
are element-identical to an exact engine over the dequantized embeddings
(pinned by ``tests/test_quant.py``).

Codec contract (a pure function of the input array):

* ``float16`` — ``scale_j = max|col_j|`` (1.0 for an all-zero column);
  codes are ``col / scale`` rounded to float16.  Scaled values lie in
  ``[-1, 1]`` where the float16 grid spacing is at most ``2^-10``, so
  ``|x - code * scale| <= scale * 2^-11``.
* ``int8`` — ``scale_j = max|col_j| / 127``; codes are
  ``round(col / scale)`` clipped to ``[-127, 127]``.  Rounding to the
  nearest integer step gives ``|x - code * scale| <= scale / 2``.

Dequantization (``codes.astype(float64) * scales``) is deterministic
float64 arithmetic, so the dequantized matrices — the ground truth the
quantized engine is exact against — are themselves a pure function of the
published codes and scales.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "QUANT_DTYPES",
    "quantize_columns",
    "dequantize_columns",
    "column_error_bound",
]

#: The supported quantization codecs, by stored-dtype name.
QUANT_DTYPES = ("float16", "int8")

#: Half the float16 grid spacing on ``[-1, 1]`` (``ulp(1.0) / 2``): the
#: worst-case round-to-nearest error of a scaled float16 code.
_FLOAT16_HALF_ULP = 2.0 ** -11


def _check_dtype(quant_dtype: str) -> str:
    if quant_dtype not in QUANT_DTYPES:
        raise ValueError(
            f"quantize dtype must be one of {QUANT_DTYPES}, got {quant_dtype!r}"
        )
    return quant_dtype


def quantize_columns(
    array: np.ndarray, quant_dtype: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize a 2-D float matrix column-wise; return ``(codes, scales)``.

    ``codes`` has the requested storage dtype and the input's shape;
    ``scales`` is ``(k,)`` float64 with strictly positive entries (all-zero
    columns get scale 1.0, coding exactly to zero).
    """
    _check_dtype(quant_dtype)
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"array must be 2-D, got {array.ndim}-D")
    if not np.all(np.isfinite(array)):
        raise ValueError("cannot quantize non-finite values")
    amax = (
        np.abs(array).max(axis=0)
        if array.shape[0]
        else np.zeros(array.shape[1])
    )
    if quant_dtype == "float16":
        scales = np.where(amax > 0.0, amax, 1.0)
        codes = (array / scales).astype(np.float16)
    else:
        scales = np.where(amax > 0.0, amax / 127.0, 1.0)
        codes = np.clip(np.rint(array / scales), -127, 127).astype(np.int8)
    return codes, scales


def dequantize_columns(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The float64 matrix a ``(codes, scales)`` pair round-trips to.

    This *is* the value the quantized serving tier is exact against: every
    score it returns is a float64 dot product over these values.
    """
    codes = np.asarray(codes)
    scales = np.asarray(scales, dtype=np.float64)
    if codes.ndim != 2 or scales.ndim != 1 or scales.size != codes.shape[1]:
        raise ValueError(
            f"codes {codes.shape} and scales {scales.shape} do not align"
        )
    return codes.astype(np.float64) * scales


def column_error_bound(scales: np.ndarray, quant_dtype: str) -> np.ndarray:
    """Per-column absolute error bound ``|x - dequantized(x)| <= bound_j``.

    How far a column's codes can sit from the values they encode — the
    precision a codec trades away.  The top-k margin does not use it
    (retrieval is exact over the dequantized values); see
    :mod:`repro.tasks.topk`.
    """
    _check_dtype(quant_dtype)
    scales = np.asarray(scales, dtype=np.float64)
    if quant_dtype == "float16":
        return scales * _FLOAT16_HALF_ULP
    return scales * 0.5
