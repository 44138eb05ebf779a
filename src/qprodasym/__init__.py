"""Exact expansion and Bessel-series asymptotics for infinite products of
shifted q-Pochhammer pairs (q^r, q^{m-r}; q^m)_inf^delta."""

from .arith import (dedekind_sum, dedekind_sum6, dedekind_sum_fast, gcd0, hbar,
                    lcm_all)
from .asymptotics import (ArcClass, ArcDatum, HypothesisError, LogComplex,
                          arc_datum, bessel_I_minus1, check_assumption,
                          classify_arcs, default_K, delta_arc, g_asymptotic,
                          g_asymptotic_members, lambda_int, lambda_star)
from .analysis import (DominantLevel, NoMajorArcsError, ResidueVerdict,
                       compare, dominant_levels, leading_profile, sign_check)
from .qseries import (CoeffSeries, ProductSpec, apply_factor, expand_spec,
                      oracle_expand, series_from_json, series_to_csv,
                      series_to_json)
from .transform import (ModularMatrix, build_gamma, check_main_transform,
                        chi, eval_Zh, eval_eta, eval_theta)

__version__ = "0.1.0"

__all__ = [
    "ArcClass", "ArcDatum", "CoeffSeries", "DominantLevel", "HypothesisError",
    "LogComplex", "ModularMatrix", "NoMajorArcsError", "ProductSpec", "ResidueVerdict", "apply_factor", "arc_datum",
    "bessel_I_minus1", "build_gamma", "check_assumption",
    "check_main_transform", "chi", "classify_arcs", "compare", "default_K",
    "dedekind_sum", "dedekind_sum6", "dedekind_sum_fast", "delta_arc", "dominant_levels",
    "eval_Zh", "eval_eta", "eval_theta", "expand_spec", "g_asymptotic",
    "g_asymptotic_members",
    "gcd0", "hbar", "lambda_int", "lambda_star", "lcm_all",
    "leading_profile", "oracle_expand", "series_from_json",
    "series_to_csv", "series_to_json", "sign_check",
]
