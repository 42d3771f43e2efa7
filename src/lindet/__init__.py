"""Linear ZF/MMSE MIMO detection analysis and Monte Carlo experiments.

Submodules and the public names below load on first use (PEP 562), so
``import lindet`` imports neither numpy nor any submodule.  This lets
``lindet.cli`` fix the BLAS thread count before numpy loads.
"""

import importlib

from ._version import __version__

_SUBMODULES = ("analysis", "channel", "cli", "detection", "exceptions", "experiments", "linalg", "properties")

#: Public name -> the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "channel": "ChannelRealization NoiseModel RngStream normalize sample_floored "
        "sample_standard_gaussian synthesize_spectrum",
        "detection": "FilterMatrix mmse_filter qpsk_modulate qpsk_slice zf_filter",
        "analysis": "CondRatioReport MmseAbc cond_ratio_approx cond_ratio_exact edelman_tail "
        "gain_db mmse_abc snr_mmse snr_zf weyl_lower_bound",
        "exceptions": "DegenerateInputError DimensionError LindetError SamplingExhaustedError "
        "SingularMatrixError",
        "linalg": "gram",
        "experiments": "ResultTable empirical_distortion_snr noise_var_from_inverse_snr "
        "noise_var_from_snr run_ber_sweep run_cond_ratio_sweep run_gain_sweep "
        "run_min_singular_cdf run_table1",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
