"""Structured simple-object labels.

The same label values index modular data and fusion rings, so fusion rules
produced from rule tables and those produced by the Verlinde formula can be
compared literally.  Sigma-type labels always carry their canonical
representative (ordered pair, or the positive fold |h|), so label sets are
duplicate-free by construction.  Rule-table rings use bare labels: group
elements, names such as ``"rho"``, and dihedral pairs ``(a, eps)``; these
serialize as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclo import _json_int
from .errors import InvalidArgumentError
from .groups import FinAbGroup, GroupElement, check_table_order


@dataclass(frozen=True)
class Pointed:
    g: GroupElement

    def __str__(self):
        return f"pt{self.g}"


@dataclass(frozen=True)
class TYPt:
    """Invertible object (g, i) of a Tambara-Yamagami double."""

    g: GroupElement
    i: int

    def __str__(self):
        return f"pt{self.g}^{self.i}"


@dataclass(frozen=True)
class TYRho:
    """sqrt(|G|)-dimensional object (g, i) of a Tambara-Yamagami double."""

    g: GroupElement
    i: int

    def __str__(self):
        return f"rho{self.g}^{self.i}"


@dataclass(frozen=True)
class TYSigma:
    """Two-dimensional object attached to an unordered pair g != h."""

    pair: tuple[GroupElement, GroupElement]

    @staticmethod
    def of(a: GroupElement, b: GroupElement) -> "TYSigma":
        if a == b:
            raise InvalidArgumentError("sigma labels need two distinct elements")
        group = a.group
        first, second = sorted((a, b), key=group.index_of)
        return TYSigma((first, second))

    def __str__(self):
        a, b = self.pair
        return f"sigma{a}{b}"


@dataclass(frozen=True)
class MPUnit:
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class MPAlpha:
    def __str__(self):
        return "alpha"


@dataclass(frozen=True)
class MPRho:
    i: int

    def __str__(self):
        return f"rho{self.i}"


@dataclass(frozen=True)
class MPSigma:
    """Two-dimensional object indexed by a positive representative h."""

    h: GroupElement

    def __str__(self):
        return "sigma:" + ",".join(map(str, self.h.coords))


@dataclass(frozen=True)
class ProductLabel:
    a: object
    b: object

    def __str__(self):
        return f"({self.a})x({self.b})"


def _el_json(g: GroupElement) -> dict:
    return {
        "group": list(g.group.invariant_factors),
        "coords": list(g.coords),
    }


def _json_ints(xs, what: str) -> list[int]:
    if not isinstance(xs, list):
        raise InvalidArgumentError(f"{what} must be a list of integers, got {xs!r}")
    return [_json_int(x, what) for x in xs]


def _el_from_json(obj: dict) -> GroupElement:
    # the orders' product is bounded before any of them is factored
    orders = _json_ints(obj["group"], "group order")
    if any(d < 1 for d in orders):
        raise InvalidArgumentError(f"group orders must be positive, got {orders}")
    check_table_order(math.prod(orders))
    return FinAbGroup.of(orders).element(_json_ints(obj["coords"], "coordinate"))


def label_to_json(label) -> dict:
    if isinstance(label, Pointed):
        return {"kind": "pointed", "g": _el_json(label.g)}
    if isinstance(label, TYPt):
        return {"kind": "ty_pt", "g": _el_json(label.g), "i": label.i}
    if isinstance(label, TYRho):
        return {"kind": "ty_rho", "g": _el_json(label.g), "i": label.i}
    if isinstance(label, TYSigma):
        return {
            "kind": "ty_sigma",
            "pair": [_el_json(label.pair[0]), _el_json(label.pair[1])],
        }
    if isinstance(label, MPUnit):
        return {"kind": "mp_unit"}
    if isinstance(label, MPAlpha):
        return {"kind": "mp_alpha"}
    if isinstance(label, MPRho):
        return {"kind": "mp_rho", "i": label.i}
    if isinstance(label, MPSigma):
        return {"kind": "mp_sigma", "h": _el_json(label.h)}
    if isinstance(label, ProductLabel):
        return {
            "kind": "product",
            "a": label_to_json(label.a),
            "b": label_to_json(label.b),
        }
    if isinstance(label, GroupElement):
        return {"kind": "element", "g": _el_json(label)}
    if isinstance(label, str):
        return {"kind": "name", "name": label}
    if (
        isinstance(label, tuple)
        and len(label) == 2
        and isinstance(label[0], GroupElement)
    ):
        return {"kind": "dihedral", "g": _el_json(label[0]), "eps": label[1]}
    raise InvalidArgumentError(f"unknown label type {type(label).__name__}")


def _json_bit(x, what: str) -> int:
    if _json_int(x, what) not in (0, 1):
        raise InvalidArgumentError(f"{what} must be 0 or 1, got {x!r}")
    return x


def _json_str(x, what: str) -> str:
    if type(x) is not str:
        raise InvalidArgumentError(f"{what} must be a string, got {x!r}")
    return x


def label_from_json(obj: dict):
    kind = obj["kind"]
    if kind == "product":
        return ProductLabel(label_from_json(obj["a"]), label_from_json(obj["b"]))
    if kind == "mp_unit":
        return MPUnit()
    if kind == "mp_alpha":
        return MPAlpha()
    if kind == "mp_rho":
        return MPRho(_json_bit(obj["i"], "i"))
    if kind == "pointed":
        return Pointed(_el_from_json(obj["g"]))
    if kind == "ty_pt":
        return TYPt(_el_from_json(obj["g"]), _json_bit(obj["i"], "i"))
    if kind == "ty_rho":
        return TYRho(_el_from_json(obj["g"]), _json_bit(obj["i"], "i"))
    if kind == "ty_sigma":
        a, b = obj["pair"]
        return TYSigma.of(_el_from_json(a), _el_from_json(b))
    if kind == "mp_sigma":
        return MPSigma(_el_from_json(obj["h"]))
    if kind == "element":
        return _el_from_json(obj["g"])
    if kind == "name":
        return _json_str(obj["name"], "name")
    if kind == "dihedral":
        return (_el_from_json(obj["g"]), _json_bit(obj["eps"], "eps"))
    raise InvalidArgumentError(f"unknown label kind {kind!r}")
