"""Pytest set-up shared by every test module.

The pins in ``test_pins.py`` and ``bench/pins.json`` are sha256 digests of
float bits, and those bits depend on numpy's OpenBLAS kernel and on its SIMD
dispatch level as well as on the code.  The report header prints both next
to the ones the pins were taken under, so a run of failing pins on another
host shows why; a quiet run (``-q``), which prints no header, prints them
after its results.  numpy is imported inside the hook, never at module level,
so this file could still set kernel variables before numpy loads.
"""

import ctypes
import glob
import os

PINNED_CORE, PINNED_SIMD = "SkylakeX", "AVX512_SPR"


def _openblas_core(np):
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
    lib.scipy_openblas_get_corename64_.argtypes = []
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    return lib.scipy_openblas_get_corename64_().decode()


def _simd_top(np):
    from numpy._core import _multiarray_umath as umath

    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)][-1]


def _lookup(read):
    """``read(numpy)``, or ``unknown`` when that fails in any way: the header never fails a run."""
    try:
        import numpy

        return read(numpy)
    except (ImportError, OSError, LookupError, AttributeError, ValueError):  # no such build, library or symbol
        return "unknown"


def pytest_report_header(config):
    return [
        f"pins taken under: OpenBLAS core {PINNED_CORE}, numpy SIMD up to {PINNED_SIMD}",
        f"this run:         OpenBLAS core {_lookup(_openblas_core)}, numpy SIMD up to {_lookup(_simd_top)}",
    ]


def pytest_terminal_summary(terminalreporter, config):
    if config.option.verbose < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)
