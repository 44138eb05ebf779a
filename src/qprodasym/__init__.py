"""Exact expansion and Bessel-series asymptotics for infinite products of
shifted q-Pochhammer pairs (q^r, q^{m-r}; q^m)_inf^delta.

``import qprodasym`` loads no submodule: each one is imported the first
time one of its names is used (PEP 562), so a session that only calls
``expand_spec`` never compiles the asymptotic code.  Names are looked up
in their home module on every access, never copied here, so
``qprodasym.X`` is always the current ``<home module>.X``.
"""

import importlib

__version__ = "0.1.0"

_HOME = {
    "arith": ("dedekind_sum_fast", "gcd0", "hbar"),
    "asymptotics": ("ArcClass", "ArcDatum", "HypothesisError", "LogComplex",
                    "NoMajorArcsError", "arc_datum", "bessel_I_minus1",
                    "check_assumption", "classify_arcs", "default_K",
                    "g_asymptotic", "g_asymptotic_members", "lambda_int",
                    "lambda_star"),
    "analysis": ("DominantLevel", "ResidueVerdict", "compare", "dominant_levels",
                 "leading_profile", "sign_check"),
    "qseries": ("CoeffSeries", "ProductSpec", "expand_spec", "oracle_expand"),
    "transform": ("check_main_transform", "eval_Zh"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not in the table (a submodule such as ``analysis``, or a typo): raise,
    # so that ``from qprodasym import analysis`` falls through to the import.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
