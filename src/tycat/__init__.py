"""Exact-arithmetic modular data for Tambara-Yamagami doubles, generalized
metaplectic modular categories, even-lattice discriminant forms, fusion
rings, hypergroups, and the associated subfactor graphs.

The public names below are re-exported lazily (PEP 562): ``import tycat``
loads no submodule, and ``tycat.glue`` or ``from tycat import ModularData``
imports the one module that defines the name on first use."""

from importlib import import_module

# the public names of each module; the package re-exports them
_EXPORTS = {
    "cyclo": ("CycNum", "RootOfUnity", "sqrt_int", "zeta"),
    "fusionrings": (
        "CharTable", "FusionRing", "Hypergroup", "check_fusion_ring", "gen_mp_fusion_ring",
        "gen_ty_fusion_ring", "ty_dual_hypergroup_and_table", "ty_fusion_ring",
        "ty_hypergroup",
    ),
    "graphs": ("BipartiteGraph", "dual_principal_graph", "emit_dot", "principal_graph"),
    "groups": ("FinAbGroup", "GroupElement", "automorphisms", "positive_set"),
    "lattices": (
        "DiscriminantForm", "EvenLattice", "count_roots", "discriminant_form", "glue",
        "mirror_check", "named_lattice", "orthogonal_sum",
    ),
    "moddata": (
        "BranchingMatrix", "MDEquivalence", "ModularData", "bantay_fs", "classify_mp",
        "hat_twist", "md_equivalent", "md_from_json", "md_to_json", "mp_md", "pointed_md",
        "reverse_md", "tensor_md", "ty_center_md", "verify_condensation",
    ),
    "quadforms": (
        "Bichar", "MetricGroup", "QuadForm", "bichar_from_qform", "classify_metric_groups",
        "direct_sum", "gauss_central_charge", "lagrangian_subgroups", "metric_double",
        "metric_equiv", "metric_group", "qform_from_bichar",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
