"""The public names of the package stay as they are."""

import types

import hvir
from hvir import algebra, analysis, groups, intermediate, parsing

PUBLIC_NAMES = {
    "ActionTable", "AlgebraElement", "AmbiguousTableError", "BasisKey", "CD", "CDI",
    "CENTERLESS", "CI", "CentralTermError", "Classification", "Cyclic",
    "DisjointOverlapError", "EXACT_CENTRAL", "FULL_Q", "FullQ", "GroupMismatchError",
    "HvirError", "I", "INTEGERS", "IndexDomainError", "IndexPredicate", "ModuleParams",
    "NonConstantScalingError", "NotIntermediateSeriesError", "ParseError",
    "RescalingMap", "SubalgebraError", "SubgroupSpec", "Subspace", "Supernatural",
    "TRIVIAL", "Trivial", "VERDICT_CODIM_ONE", "VERDICT_IRREDUCIBLE",
    "VERDICT_TRIVIAL_SUB", "WeightVector", "Window", "ZERO", "act", "act_word",
    "align_extension", "apply_phi", "as_fraction", "basis_vector", "bracket",
    "classify", "closure", "contains", "cyclic", "d", "finitely_generated",
    "format_table", "in_subalgebra", "intermediate_series_table",
    "intertwiner_check", "is_subgroup", "iso_check", "jacobiator", "normalize_alpha",
    "parse_element", "parse_group", "parse_params", "parse_rational", "parse_table",
    "pullback_params", "qk", "rank", "recover_params", "reducibility_scan",
    "restriction_report", "scan_details", "subgroup_intersect", "subgroup_sum",
    "submodule_basis", "supernatural", "transported_table", "weight_components",
}

MODULE_ALL = {
    algebra: [
        "BasisKey", "d", "I", "CD", "CDI", "CI", "AlgebraElement", "ZERO", "bracket",
        "jacobiator", "weight_components", "in_subalgebra", "RescalingMap",
        "CENTERLESS", "EXACT_CENTRAL", "apply_phi",
    ],
    analysis: [
        "Window", "Subspace", "ActionTable", "intermediate_series_table",
        "transported_table", "closure", "reducibility_scan", "scan_details",
        "restriction_report", "intertwiner_check", "recover_params", "align_extension",
    ],
    groups: [
        "SubgroupSpec", "Trivial", "Cyclic", "Supernatural", "FullQ", "TRIVIAL",
        "FULL_Q", "INTEGERS", "as_fraction", "cyclic", "supernatural", "qk", "contains",
        "subgroup_sum", "subgroup_intersect", "is_subgroup", "rank",
        "finitely_generated", "normalize_alpha",
    ],
    intermediate: [
        "ModuleParams", "WeightVector", "basis_vector", "act", "act_word",
        "Classification", "VERDICT_IRREDUCIBLE", "VERDICT_TRIVIAL_SUB",
        "VERDICT_CODIM_ONE", "classify", "IndexPredicate", "submodule_basis",
        "iso_check", "pullback_params",
    ],
    parsing: [
        "parse_rational", "parse_element", "parse_group", "parse_params",
        "parse_table", "format_table",
    ],
}


SUBMODULES = {"algebra", "analysis", "errors", "groups", "intermediate", "parsing"}


def test_package_names():
    # dir() and getattr, since the analysis names load on first use
    names = {
        name for name in dir(hvir)
        if not name.startswith("_") and not isinstance(getattr(hvir, name), types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 77
    assert names == PUBLIC_NAMES


def test_star_import_names():
    namespace = {}
    exec("from hvir import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 83
    assert set(namespace) == PUBLIC_NAMES | SUBMODULES
    assert namespace["analysis"] is analysis


def test_module_all():
    for module, names in MODULE_ALL.items():
        assert module.__all__ == names, module.__name__
        assert set(names) <= PUBLIC_NAMES
