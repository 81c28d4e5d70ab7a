"""Exact mode algebra and factorization-style functional calculus for
graded vertex algebras on the complex plane."""

from .scalars import QQi, DegreeWindow, parse_qqi
from .graded import GradedVector, ProductVector
from .presets import (VAPreset, heisenberg, virasoro, affine_sl2,
                      preset_from_name, basis, basis_upto, state_mode,
                      gen_mode_apply, translate, pole_bound)
from .mu import mu_one_point, mu_numeric, two_point_value
from .functionals import DeltaJet, CircleMoment, quadrature_moment
from .geometry import AllPlane, Annulus, Disc, UnionSet, is_disjoint, is_subset
from .expressions import (Expression, affine_act, evaluate_expression,
                          extend, multiply)
from .relations import (relation_kernel, weight_project, run_counterexample,
                        multiplicativity_check, concentric_density_check,
                        weiss_cover_check, roundtrip_check)
from .report import CheckReport
from .suite import SuiteConfig, run_suite, emit_tables

__version__ = "0.1.0"

__all__ = [
    "QQi", "DegreeWindow", "parse_qqi", "GradedVector", "ProductVector",
    "VAPreset", "heisenberg", "virasoro", "affine_sl2", "preset_from_name",
    "basis", "basis_upto", "state_mode", "gen_mode_apply", "translate",
    "pole_bound", "mu_one_point", "mu_numeric", "two_point_value",
    "DeltaJet", "CircleMoment", "quadrature_moment", "AllPlane", "Annulus",
    "Disc", "UnionSet", "is_disjoint", "is_subset", "Expression",
    "affine_act", "evaluate_expression", "extend", "multiply",
    "relation_kernel", "weight_project", "run_counterexample",
    "multiplicativity_check", "concentric_density_check",
    "weiss_cover_check", "roundtrip_check", "CheckReport", "SuiteConfig",
    "run_suite", "emit_tables",
]
