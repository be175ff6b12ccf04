"""Workload definitions: the op lists each workload runs, made from a seed.

An op is one ``python -m tycat ...`` invocation plus the facts its output
is checked against (see ``checks.py``).  The set of ops of a workload is
fixed; the seed only fixes the order in which a pass runs them, so every
seed does the same work and differs only in order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "big-build", "consume")

# every odd abelian group of order 3..45, one per isomorphism class
# (invariant factors as the CLI takes them)
ODD_GROUPS = (
    "3", "5", "7", "9", "3,3", "11", "13", "15", "17", "19", "21", "23",
    "25", "5,5", "27", "3,9", "3,3,3", "29", "31", "33", "35", "37", "39",
    "41", "43", "45", "3,15",
)

# named lattices whose discriminant form has an isotropic vector that glues
# them to E8; the glue vectors were read off the `disc` output (the
# README's `--isotropic 1,1` is not isotropic for A2+E6)
E8_GLUINGS = (("A2+E6", "0,1"), ("A4+A4", "0,1"), ("A8", "3"))
# `md pointed` runs on the groups up to this order and on Z3^3, whose build is
# mostly classification; the larger builds take 0.5-3.5 s and write up to
# 18 MB each, which would not fit a pass into the run budget
POINTED_MAX_ORDER = 15
DISC_LATTICES = ("E7", "A2+E6", "A4+A4", "A8")


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]
    check: dict = field(default_factory=dict, compare=False, hash=False)


def sweep_ops() -> list[Op]:
    ops = []
    for g in ODD_GROUPS:
        ops.append(Op(f"classify:{g}", ("classify", "--group", g), {"kind": "classify", "group": g}))
        if math.prod(int(x) for x in g.split(",")) > POINTED_MAX_ORDER and g != "3,3,3":
            continue
        ops.append(Op(
            f"md-pointed:{g}", ("md", "pointed", "--group", g),
            {"kind": "md", "family": "pointed", "group": g},
        ))
    for g in ("3", "5", "7", "9", "3,3"):
        for sign in "+-":
            ops.append(Op(
                f"md-mp:{g}:{sign}", ("md", "mp", "--group", g, "--sign", sign),
                {"kind": "md", "family": "mp", "group": g},
            ))
    for g, sign in (("3", "+"), ("3", "-"), ("5", "+")):
        ops.append(Op(
            f"md-ty:{g}:{sign}", ("md", "ty-center", "--group", g, "--sign", sign),
            {"kind": "md", "family": "ty-center", "group": g},
        ))
    for lat in DISC_LATTICES:
        ops.append(Op(f"disc:{lat}", ("disc", "--lattice", lat), {"kind": "disc", "lattice": lat}))
    for lat, vec in E8_GLUINGS:
        ops.append(Op(
            f"glue:{lat}", ("glue", "--lattice", lat, "--isotropic", vec),
            {"kind": "glue-e8"},
        ))
    for g in ("3", "5"):
        for which in ("lr-principal", "lr-dual"):
            ops.append(Op(f"graph:{which}:{g}", ("graph", which, "--group", g),
                          {"kind": "graph", "which": which, "group": g}))
        ops.append(Op(f"hypergroup:{g}", ("hypergroup", "--group", g, "--table"),
                      {"kind": "hypergroup", "group": g}))
    # `ty` and `genty` are documented in the README; they exit 1 at the
    # time this benchmark was written and count as failed ops
    for rules, g in (("genmp", "5"), ("genmp", "9"), ("genty", "3"), ("genty", "5"),
                     ("ty", "3"), ("ty", "5")):
        ops.append(Op(f"fusion-rules:{rules}:{g}", ("fusion", "--rules", rules, "--group", g),
                      {"kind": "rules", "rules": rules, "group": g}))
    return ops


# ops the traced run leaves out of its counting pass: TY(Z11) would add about
# 20 s to it
COUNT_PASS_SKIP = frozenset({"md-ty-center:11"})


def big_build_ops() -> list[Op]:
    specs = (("ty-center", "11"), ("ty-center", "9"), ("ty-center", "3,3"),
             ("pointed", "75"), ("mp", "45"))
    return [
        Op(f"md-{kind}:{g}", ("md", kind, "--group", g),
           {"kind": "md", "family": kind, "group": g})
        for kind, g in specs
    ]


# -- consume: inputs written in set-up, then read by the timed ops -------------
# (TY(Z7) is left out: writing and reading it would add 6 s to every run)

# name -> CLI argv that writes it (stdout is the file)
CONSUME_INPUTS = {
    "ty5": ("md", "ty-center", "--group", "5"),
    "ty9": ("md", "ty-center", "--group", "9"),
    "mp15p": ("md", "mp", "--group", "15", "--sign", "+"),
    "mp15m": ("md", "mp", "--group", "15", "--sign", "-"),
    "mp45": ("md", "mp", "--group", "45"),
    "pt45": ("md", "pointed", "--group", "45"),
    "mp3": ("md", "mp", "--group", "3"),
    "pt3": ("md", "pointed", "--group", "3", "--qform", "0,1/3,1/3"),
    # rule tables the Verlinde rings of the mp inputs must equal
    "genmp15": ("fusion", "--rules", "genmp", "--group", "15"),
    "genmp45": ("fusion", "--rules", "genmp", "--group", "45"),
    "genmp3": ("fusion", "--rules", "genmp", "--group", "3"),
}
# family and group of each modular-data input, for the output checks
CONSUME_MD = {
    "ty5": ("ty-center", "5"), "ty9": ("ty-center", "9"),
    "mp15p": ("mp", "15"), "mp15m": ("mp", "15"), "mp45": ("mp", "45"),
    "pt45": ("pointed", "45"), "mp3": ("mp", "3"), "pt3": ("pointed", "3"),
}
GENMP_OF = {"mp15p": "genmp15", "mp15m": "genmp15", "mp45": "genmp45", "mp3": "genmp3"}
# relabeled copies written by the benchmark itself: name -> (source, seed
# of the fixed label permutation)
CONSUME_RELABELED = {"mp45r": ("mp45", 45), "ty5r": ("ty5", 5)}
# (input, label index) pairs for `fs`
FS_LABELS = (
    ("mp15p", 1), ("mp15p", 2), ("mp15p", 10), ("mp15m", 3), ("mp15m", 9),
    ("pt45", 0), ("pt45", 7), ("ty5", 1), ("ty5", 29), ("mp45", 3),
    ("mp3", 1), ("mp3", 4), ("pt3", 1),
)
EQUIV_PAIRS = (
    ("mp45", "mp45r", True), ("ty5", "ty5r", True),
    ("mp15p", "mp15m", False), ("ty5", "mp45", False),
)


def input_path(name: str) -> str:
    return f"inputs/{name}.json"


def consume_ops(label_names: dict[str, list[str]]) -> list[Op]:
    """The timed ops of `consume`; ``label_names`` maps an input to its
    label names (read from the set-up output)."""
    ops = []
    for name, (family, g) in CONSUME_MD.items():
        ops.append(Op(
            f"fusion-from-md:{name}", ("fusion", "--from-md", input_path(name)),
            {"kind": "verlinde", "input": name, "family": family, "group": g,
             "rules": GENMP_OF.get(name)},
        ))
    for name, idx in FS_LABELS:
        label = label_names[name][idx]
        ops.append(Op(
            f"fs:{name}:{idx}", ("fs", "--md", input_path(name), "--label", label),
            {"kind": "fs", "input": name, "index": idx},
        ))
    for a, b, equivalent in EQUIV_PAIRS:
        ops.append(Op(
            f"equiv:{a}:{b}", ("equiv", "--a", input_path(a), "--b", input_path(b)),
            {"kind": "equiv", "a": a, "b": b, "equivalent": equivalent},
        ))
    ops.append(Op(
        "condense:mp3:pt3",
        ("condense", "--parent", input_path("mp3"), "--child", input_path("pt3"),
         "--bosons", "unit,alpha"),
        {"kind": "condense", "parent": "mp3", "child": "pt3"},
    ))
    return ops


def shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    out = list(ops)
    rng.shuffle(out)
    return out

