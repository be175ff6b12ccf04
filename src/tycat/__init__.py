"""Exact-arithmetic modular data for Tambara-Yamagami doubles, generalized
metaplectic modular categories, even-lattice discriminant forms, fusion
rings, hypergroups, and the associated subfactor graphs."""

from .cyclo import CycNum, RootOfUnity, sqrt_int, zeta
from .fusionrings import (
    CharTable,
    FusionRing,
    Hypergroup,
    check_fusion_ring,
    gen_mp_fusion_ring,
    gen_ty_fusion_ring,
    ty_dual_hypergroup_and_table,
    ty_fusion_ring,
    ty_hypergroup,
)
from .graphs import BipartiteGraph, dual_principal_graph, emit_dot, principal_graph
from .groups import FinAbGroup, GroupElement, automorphisms, positive_set
from .lattices import (
    DiscriminantForm,
    EvenLattice,
    count_roots,
    discriminant_form,
    glue,
    mirror_check,
    named_lattice,
    orthogonal_sum,
)
from .moddata import (
    BranchingMatrix,
    MDEquivalence,
    ModularData,
    bantay_fs,
    classify_mp,
    hat_twist,
    md_equivalent,
    md_from_json,
    md_to_json,
    mp_md,
    pointed_md,
    reverse_md,
    tensor_md,
    ty_center_md,
    verify_condensation,
)
from .quadforms import (
    Bichar,
    MetricGroup,
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    direct_sum,
    gauss_central_charge,
    lagrangian_subgroups,
    metric_double,
    metric_equiv,
    metric_group,
    qform_from_bichar,
)

__version__ = "0.1.0"
