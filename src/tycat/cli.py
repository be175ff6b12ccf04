"""Command-line interface.

Every subcommand validates its inputs before computing, writes UTF-8 JSON
to stdout (DOT text for graph commands with --dot), and reserves stderr
for diagnostics.  Exit codes: 0 success, 1 domain error, 2 usage error.
Exact rationals serialize as strings like "1/3".  An exact cyclotomic
value serializes as ``{"conductor": n, "den": d, "terms": [[e, c], ...]}``,
meaning sum(c * zeta_n^e) / d; modular data carry one advisory float block
(``float_view``) beside their exact entries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import reduce

# moddata (with modcheck, fusionrings and labels) and fusionrings are
# imported inside the commands that run them, so that `classify`, `disc`,
# `glue` and `graph` start without them
from .cyclo import RootOfUnity
from .errors import TycatError, UnsupportedError
from .graphs import dual_principal_graph, emit_dot, principal_graph
from .groups import FinAbGroup, check_table_order
from .lattices import (
    EvenLattice,
    count_roots,
    discriminant_form,
    glue,
    named_lattice,
    orthogonal_sum,
)
from .quadforms import (
    Bichar,
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    gauss_central_charge,
    metric_group,
    standard_qform,
)


# pieces per write: under PYTHONUNBUFFERED=1, which a parent process passes
# on to its children, every sys.stdout.write is a system call; writing each
# piece on its own raised TY(Z11)'s encode from 35-52 ms to 82-98 ms on two
# shared vCPUs, though it lowered peak RSS from 50.3 to 42.2 MB
_EMIT_BATCH = 1 << 16


def _rat(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


_str = json.encoder.encode_basestring_ascii
# the text of a scalar by its exact type; subclasses go through _scalar
_SCALAR = {
    str: _str,
    int: int.__repr__,
    float: _float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _scalar(x) -> str | None:
    """The JSON text of a scalar as ``json`` writes it, None for a list,
    tuple or dict, and ``json``'s TypeError for anything else."""
    if (f := _SCALAR.get(type(x))) is not None:
        return f(x)
    if isinstance(x, (list, tuple, dict)):
        return None
    if isinstance(x, str):
        return _str(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    return json.JSONEncoder().default(x)  # raises


def _key(k) -> str:
    """A dict key converted as ``json`` converts it."""
    if isinstance(k, str):
        return _str(k)
    if k is None or isinstance(k, (int, float)):
        return _str(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _emit(obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, in joined batches
    of ``_EMIT_BATCH`` pieces rather than one string of the whole document.

    A container met a second time at the same depth is encoded once more
    into a string that every later sighting writes as it is (the text of a
    container depends only on its depth), so modular data's shared S
    entries are encoded at most twice; a list of scalars is one join."""
    out: list[str] = []
    seen: dict = {}  # (id, depth) -> None when met once, its text from then on

    def container(o, depth: int, parts: list) -> None:
        key = (id(o), depth)
        if key not in seen:
            seen[key] = None
            return body(o, depth, parts)
        if (text := seen[key]) is None:
            sub: list[str] = []
            body(o, depth, sub)
            text = seen[key] = "".join(sub)
        parts.append(text)

    def body(o, depth: int, parts: list) -> None:
        if not o:
            return parts.append("{}" if isinstance(o, dict) else "[]")
        inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if isinstance(o, dict):
            sep, end = "{" + inner, close + "}"
            items = ((_key(k) + ": ", v) for k, v in o.items())
        else:
            sep, end = "[" + inner, close + "]"
            try:
                texts = [_SCALAR[type(x)](x) for x in o]
            except KeyError:  # a container or a subclass
                items = (("", x) for x in o)
            else:
                return parts.append(sep + ("," + inner).join(texts) + end)
        for head, v in items:
            if (text := _scalar(v)) is None:
                parts.append(sep + head)
                container(v, depth + 1, parts)
            else:
                parts.append(sep + head + text)
            sep = "," + inner
            if len(out) >= _EMIT_BATCH:
                flush()
        parts.append(end)

    def flush() -> None:
        sys.stdout.write("".join(out))
        out.clear()

    if (text := _scalar(obj)) is None:
        container(obj, 0, out)
    else:
        out.append(text)
    flush()
    # a write the reader left part-way returns short without an error, so
    # the newline goes alone and the flush reports a closed pipe here
    sys.stdout.write("\n")
    sys.stdout.flush()


_ASCII_INT = re.compile(r"-?[0-9]+")


def _ascii_int(text: str) -> int:
    """An integer written as ``-?[0-9]+`` after trimming whitespace;
    ValueError otherwise (``int`` also reads other scripts' digits, ``_``
    and ``+``)."""
    if not _ASCII_INT.fullmatch(text := text.strip()):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _group_orders(spec: str) -> list[int]:
    """argparse type of --group: a malformed list is a usage error."""
    try:
        return [_ascii_int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cyclic orders, got {spec!r}"
        ) from None


def _group(orders: list[int]) -> FinAbGroup:
    """The group of a --group list.  |G| above ``groups.MAX_TABLE_ORDER``,
    the bound of the form code and of moddata's |G| x |G| tables, is refused
    before any cyclic order is factored."""
    check_table_order(math.prod(orders))
    return FinAbGroup.of(orders)


def _parse_lattice(spec: str) -> EvenLattice:
    if spec.endswith(".json") or os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return EvenLattice.from_json(json.load(fh))
    parts = [p.strip() for p in spec.split("+") if p.strip()] or [spec]  # "+" names no lattice
    return reduce(orthogonal_sum, map(named_lattice, parts))


_ASCII_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fractions(spec: str) -> list[Fraction]:
    """Comma-separated rationals, each ``-?[0-9]+(/[0-9]+)?`` after trimming
    whitespace; anything else, a zero denominator included, is malformed
    input (``Fraction`` also reads other scripts' digits, ``_`` and decimals)."""
    out = []
    for x in spec.split(","):
        if not _ASCII_RATIONAL.fullmatch(x := x.strip()):
            raise ValueError(f"expected a rational in ASCII digits, got {x!r}")
        try:
            out.append(Fraction(x))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {spec!r}") from None
    return out


def _default_qform(group: FinAbGroup) -> QuadForm:
    if group.order % 2 == 0:
        raise UnsupportedError(
            f"the default form needs a group of odd order, got order {group.order}; "
            "pass --qform"
        )
    return standard_qform(group)


def _parse_qform(spec: str | None, group: FinAbGroup) -> QuadForm:
    if spec is None or spec == "default":
        return _default_qform(group)
    return QuadForm.from_exponents(group, _fractions(spec))


def _parse_bichar(spec: str, group: FinAbGroup) -> Bichar:
    if spec == "default":
        return metric_group(_default_qform(group)).bichar
    rows = [[RootOfUnity(x) for x in _fractions(row)] for row in spec.split(";")]
    b = Bichar(group, rows)
    b.validate()
    return b


def _load_md(path: str):
    from .moddata import md_from_json

    with open(path, "r", encoding="utf-8") as fh:
        return md_from_json(json.load(fh))


def _qform_payload(group: FinAbGroup, q: QuadForm) -> dict:
    return {
        "group": list(group.invariant_factors),
        "qform": [_rat(v.exponent) for v in q.values],
        "central_charge": gauss_central_charge(q),
        "approx": [
            [v.to_complex().real, v.to_complex().imag] for v in q.values
        ],
    }


# -- subcommand bodies ----------------------------------------------------------


def _cmd_disc(args) -> int:
    lat = _parse_lattice(args.lattice)
    disc = discriminant_form(lat)
    _emit(_qform_payload(disc.group, disc.qform))
    return 0


def _cmd_glue(args) -> int:
    lat = _parse_lattice(args.lattice)
    disc = discriminant_form(lat)
    gens = []
    for part in args.isotropic.split(";"):
        part = part.strip()
        if part:
            gens.append(disc.group.element([_ascii_int(x) for x in part.split(",")]))
    out = glue(lat, gens)
    payload = {
        "gram": [list(r) for r in out.gram],
        "rank": out.rank,
        "det": out.determinant,
    }
    if out.rank <= 8:
        payload["root_count"] = count_roots(out)
    _emit(payload)
    return 0


def _cmd_classify(args) -> int:
    group = _group(args.group)
    reps = classify_metric_groups(group)
    _emit(
        {
            "group": list(group.invariant_factors),
            "metric_classes": len(reps),
            "mp_classes": 2 * len(reps),
            "qforms": [[_rat(v.exponent) for v in m.quad.values] for m in reps],
        }
    )
    return 0


def _cmd_md(args) -> int:
    from .moddata import md_to_json, mp_md, pointed_md, ty_center_md

    group = _group(args.group)
    sign = 1 if args.sign == "+" else -1
    if args.kind == "pointed":
        q = _parse_qform(args.qform, group)
        md = pointed_md(metric_group(q))
    else:
        if args.bichar is not None:
            b = _parse_bichar(args.bichar, group)
        else:
            b = bichar_from_qform(_parse_qform(args.qform, group))
        if args.kind == "ty-center":
            md = ty_center_md(group, b, sign)
        else:
            md = mp_md(group, b, sign)
    _emit(md_to_json(md))
    return 0


def _cmd_fusion(args) -> int:
    from .fusionrings import gen_mp_fusion_ring, gen_ty_fusion_ring, ty_fusion_ring

    if args.from_md:
        ring = _load_md(args.from_md).fusion_ring()
    else:
        group = _group(args.group)
        builder = {
            "ty": ty_fusion_ring,
            "genty": gen_ty_fusion_ring,
            "genmp": gen_mp_fusion_ring,
        }[args.rules]
        ring = builder(group)
    # every ring printed here was checked by its rule builder or proven by
    # ModularData, which raise otherwise (exit 1)
    _emit(
        {
            "ring": ring.to_json(),
            "check": {
                "ok": True,
                "violations": [],
                "fp_dims": ring.fp_dims,
                "global_dim": ring.global_dim,
            },
        }
    )
    return 0


def _cmd_fs(args) -> int:
    from .moddata import bantay_fs

    md = _load_md(args.md)
    label = md.label_named(args.label)
    _emit({"label": args.label, "nu": bantay_fs(md, label)})
    return 0


def _cmd_equiv(args) -> int:
    from .moddata import md_equivalent

    a = _load_md(args.a)
    b = _load_md(args.b)
    w = md_equivalent(a, b)
    if w is None:
        _emit({"witness": None})
    else:
        _emit(
            {
                "witness": {
                    "mapping": list(w.mapping),
                    "zeta_exponent": 0,  # equal central charges: T' = T
                }
            }
        )
    return 0


def _cmd_condense(args) -> int:
    from .moddata import verify_condensation

    parent = _load_md(args.parent)
    child = _load_md(args.child)
    bosons = []
    for part in args.bosons.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            bosons.append(_ascii_int(part))
        except ValueError:
            bosons.append(parent.label_named(part))
    cert = verify_condensation(parent, child, bosons)
    if cert is None:
        _emit({"certificate": None})
    else:
        _emit(
            {
                "certificate": {
                    "matrix": [list(r) for r in cert.matrix],
                    "zeta_exponent": 0,  # equal central charges: T' = T
                }
            }
        )
    return 0


def _cmd_graph(args) -> int:
    group = _group(args.group)
    builder = principal_graph if args.which == "lr-principal" else dual_principal_graph
    graph = builder(group)
    if args.dot:
        sys.stdout.write(emit_dot(graph))
    else:
        _emit(graph.to_json())
    return 0


def _cmd_hypergroup(args) -> int:
    from .fusionrings import ty_dual_hypergroup_and_table, ty_hypergroup

    group = _group(args.group)
    payload = {"hypergroup": ty_hypergroup(group).to_json()}
    if args.table:
        dual, table = ty_dual_hypergroup_and_table(group)
        payload["dual"] = dual.to_json()
        payload["character_table"] = table.to_json()
    _emit(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tycat",
        description=(
            "exact modular data, fusion rules, lattices, and graphs for "
            "Tambara-Yamagami doubles and metaplectic modular categories"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", help="discriminant form of an even lattice")
    p.add_argument("--lattice", required=True, help="name (A2, E8, A2+E6) or gram JSON path")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("glue", help="glue an isotropic subgroup onto a lattice")
    p.add_argument("--lattice", required=True)
    p.add_argument(
        "--isotropic",
        required=True,
        help="generator coordinates in the discriminant group, e.g. '1,1' or '1,0;0,1'",
    )
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("classify", help="metric-group classes on a finite abelian group")
    p.add_argument(
        "--group", required=True, type=_group_orders,
        help="cyclic orders, e.g. '15' or '3,3'",
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("md", help="construct modular data")
    p.add_argument("kind", choices=["pointed", "ty-center", "mp"])
    p.add_argument("--group", required=True, type=_group_orders)
    p.add_argument("--qform", default=None, help="'default' (the default) or value exponents r(g)")
    p.add_argument(
        "--bichar", default=None,
        help="'default' or generator exponent rows; ty-center and mp only, instead of --qform",
    )
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.set_defaults(func=_cmd_md)

    p = sub.add_parser("fusion", help="fusion ring from rules or from modular data")
    p.add_argument("--from-md", dest="from_md", default=None, help="modular data JSON path")
    p.add_argument("--rules", choices=["ty", "genty", "genmp"], default=None)
    p.add_argument("--group", default=None, type=_group_orders)
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("fs", help="Frobenius-Schur indicator of a label")
    p.add_argument("--md", required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(func=_cmd_fs)

    p = sub.add_parser("equiv", help="search for an equivalence of two modular data")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("condense", help="branching certificate for a condensation")
    p.add_argument("--parent", required=True)
    p.add_argument("--child", required=True)
    p.add_argument("--bosons", required=True, help="parent label indices or names")
    p.set_defaults(func=_cmd_condense)

    p = sub.add_parser("graph", help="principal graphs of the double subfactor")
    p.add_argument("which", choices=["lr-principal", "lr-dual"])
    p.add_argument("--group", required=True, type=_group_orders)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("hypergroup", help="Tambara-Yamagami hypergroup data")
    p.add_argument("--group", required=True, type=_group_orders)
    p.add_argument("--table", action="store_true", help="include the dual and character table")
    p.set_defaults(func=_cmd_hypergroup)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "fusion" and not args.from_md:
        if not (args.rules and args.group):
            parser.error("fusion needs --from-md or both --rules and --group")
    if args.command == "md" and args.bichar is not None:
        if args.kind == "pointed":
            parser.error("md pointed takes --qform, not --bichar")
        if args.qform is not None:
            parser.error("md takes --qform or --bichar, not both")
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away: point stdout at the null device, so the
        # interpreter's exit flush cannot raise again, and fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except TycatError as exc:
        _emit({"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
