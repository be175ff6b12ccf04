"""What each entry point loads: ``import tycat`` loads no submodule, and a
subcommand imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import tycat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))

# the names the package exported when its __init__ imported every module
EXPORTS = {
    "cyclo": ["CycNum", "RootOfUnity", "sqrt_int", "zeta"],
    "fusionrings": [
        "CharTable", "FusionRing", "Hypergroup", "check_fusion_ring", "gen_mp_fusion_ring",
        "gen_ty_fusion_ring", "ty_dual_hypergroup_and_table", "ty_fusion_ring",
        "ty_hypergroup",
    ],
    "graphs": ["BipartiteGraph", "dual_principal_graph", "emit_dot", "principal_graph"],
    "groups": ["FinAbGroup", "GroupElement", "automorphisms", "positive_set"],
    "lattices": [
        "DiscriminantForm", "EvenLattice", "count_roots", "discriminant_form", "glue",
        "mirror_check", "named_lattice", "orthogonal_sum",
    ],
    "moddata": [
        "BranchingMatrix", "MDEquivalence", "ModularData", "bantay_fs", "classify_mp",
        "hat_twist", "md_equivalent", "md_from_json", "md_to_json", "mp_md", "pointed_md",
        "reverse_md", "tensor_md", "ty_center_md", "verify_condensation",
    ],
    "quadforms": [
        "Bichar", "MetricGroup", "QuadForm", "bichar_from_qform", "classify_metric_groups",
        "direct_sum", "gauss_central_charge", "lagrangian_subgroups", "metric_double",
        "metric_equiv", "metric_group", "qform_from_bichar",
    ],
}
MODDATA_STACK = {"moddata", "modcheck", "fusionrings", "labels"}

# runs the CLI on ARGV..., as `python -m tycat` does, then prints the exit
# code and the tycat modules it loaded
_RUN = (
    "import json, sys\n"
    "from tycat.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "mods = sorted(m[6:] for m in sys.modules if m.startswith('tycat.'))\n"
    "print(json.dumps([code, mods]), file=sys.stderr)\n"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )


def _loaded_by(*argv: str) -> set[str]:
    proc = _python("-c", _RUN, *argv)
    code, mods = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(mods)


def test_import_tycat_loads_no_submodule():
    proc = _python("-c", "import sys, tycat; print([m for m in sys.modules if m.startswith('tycat.')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "3"),
    ("disc", "--lattice", "A2"),
    ("glue", "--lattice", "A2+E6", "--isotropic", "0,1"),
    ("graph", "lr-principal", "--group", "3"),
], ids=" ".join)
def test_lattice_and_group_commands_load_no_modular_data(argv):
    loaded = _loaded_by(*argv)
    assert "cli" in loaded and not loaded & MODDATA_STACK, loaded


@pytest.mark.parametrize("argv", [
    ("fusion", "--rules", "genmp", "--group", "3"),
    ("hypergroup", "--group", "3", "--table"),
], ids=" ".join)
def test_rule_commands_load_no_modular_data(argv):
    loaded = _loaded_by(*argv)
    assert "fusionrings" in loaded and not loaded & {"moddata", "modcheck"}, loaded


def test_md_loads_the_modular_data_stack():
    assert MODDATA_STACK <= _loaded_by("md", "pointed", "--group", "3")


def test_package_exports_the_same_names_from_their_homes():
    assert tycat.__all__ == [name for names in EXPORTS.values() for name in names]
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"tycat.{module}")
        for name in names:
            assert getattr(tycat, name) is getattr(home, name), name
    assert set(tycat.__all__) <= set(dir(tycat))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        tycat.nothing  # noqa: B018


def test_star_import_binds_every_export():
    proc = _python("-c", "from tycat import *; import tycat; "
                         "print(all(globals()[n] is getattr(tycat, n) for n in tycat.__all__))")
    assert proc.returncode == 0 and proc.stdout.strip() == "True", proc.stderr
