"""Output checks against facts known independently of the code under test.

Every check reads the JSON an op printed and returns ``None`` when it holds
or a one-line reason when it does not.  Exact cyclotomic entries are
decoded from the dense coefficient form the CLI writes and from a sparse
``terms`` form, so the checks survive a change of JSON encoding; the
advisory float blocks are never read.

Facts used (|G| is the group order, all groups odd):
  * ranks: |G| (pointed), 4|G| + |G|(|G|-1)/2 (TY double), (|G|+7)/2 (mp);
  * S symmetric and unitary, (ST)^3 = S^2 a permutation, |T_i| = 1;
  * global dimension sum d^2: |G|, 4|G|^2 (doubles, which have c = 0), 4|G|;
  * 2^k metric classes, k the number of distinct prime-power types;
  * Milgram: the Gauss charge of a discriminant form is the rank mod 8;
  * gluing A2+E6, A4+A4 or A8 gives E8: rank 8, det 1, 240 roots;
  * the Verlinde ring of mp data equals the genmp rule table.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np

TOL = 1e-7


# -- decoding ---------------------------------------------------------------------

_ROOTS: dict[int, list[complex]] = {}


def _roots(n: int) -> list[complex]:
    r = _ROOTS.get(n)
    if r is None:
        r = _ROOTS[n] = [cmath.exp(2j * math.pi * e / n) for e in range(n)]
    return r


def _rat(c) -> Fraction:
    if isinstance(c, (list, tuple)):
        return Fraction(int(c[0]), int(c[1]))
    return Fraction(c)


def cyc(x) -> complex:
    """Complex value of one exact cyclotomic entry."""
    if isinstance(x, (int, str)):
        return complex(_rat(x))
    n = int(x["conductor"])
    w = _roots(n)
    total = 0j
    if "coeffs" in x:  # dense: coefficient of zeta_n^e for e < phi(n)
        for e, c in enumerate(x["coeffs"]):
            if isinstance(c, list):
                if c[0]:
                    total += c[0] / c[1] * w[e]
            elif c:
                total += float(_rat(c)) * w[e]
    else:  # sparse: (exponent, coefficient) pairs or {exponent: coefficient}
        terms = x["terms"]
        pairs = terms.items() if isinstance(terms, dict) else terms
        for e, c in pairs:
            total += float(_rat(c)) * w[int(e) % n]
    return total / float(_rat(x.get("den", 1)))


class MD:
    """The parts of a modular-data JSON the checks need, as floats."""

    def __init__(self, obj: dict):
        self.c_top = int(Fraction(obj["c_top"]))
        self.names = [str(n) for n in obj["label_names"]]
        self.S = np.array([[cyc(x) for x in row] for row in obj["S"]], dtype=complex)
        self.T = np.array([cyc(x) for x in obj["T"]], dtype=complex)

    @property
    def rank(self) -> int:
        return len(self.names)

    def dims(self) -> np.ndarray:
        return self.S[:, 0] / self.S[0, 0]

    def self_dual(self, i: int) -> bool:
        # S_{i*,j} = conj(S_{i,j}), so i = i* exactly when row i is real
        return bool(np.all(np.abs(self.S[i].imag) < TOL))

    def invariants(self) -> list[tuple]:
        """Sorted (dimension, twist) pairs: equal for equivalent data."""
        d = self.dims().real
        theta = self.T / self.T[0]
        return sorted(
            (round(float(x), 6), round(cmath.phase(t) / (2 * math.pi) % 1.0, 6) % 1.0)
            for x, t in zip(d, theta)
        )


def read_json(path) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.read())


# -- facts -------------------------------------------------------------------------


def order(group: str) -> int:
    return math.prod(int(x) for x in group.split(","))


def prime_power_types(group: str) -> int:
    types = set()
    for d in (int(x) for x in group.split(",")):
        p = 2
        while d > 1:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                types.add(q)
            p += 1
    return len(types)


def md_rank(family: str, n: int) -> int:
    return {"pointed": n, "ty-center": 4 * n + n * (n - 1) // 2, "mp": (n + 7) // 2}[family]


def md_global_dim(family: str, n: int) -> int:
    return {"pointed": n, "ty-center": 4 * n * n, "mp": 4 * n}[family]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# -- per-kind checks ------------------------------------------------------------------


def check_md(obj: dict, family: str, group: str) -> str | None:
    n = order(group)
    md = MD(obj)
    r = md_rank(family, n)
    if md.rank != r or md.S.shape != (r, r) or md.T.shape != (r,):
        return f"rank {md.rank}, expected {r}"
    if family == "ty-center" and md.c_top % 8 != 0:
        return f"c_top {md.c_top} for a double"
    S, T = md.S, md.T
    if np.abs(S - S.T).max() > TOL:
        return "S is not symmetric"
    if np.abs(S @ S.conj().T - np.eye(r)).max() > TOL:
        return "S is not unitary"
    if np.abs(np.abs(T) - 1).max() > TOL:
        return "T has an entry off the unit circle"
    if abs(T[0] - cmath.exp(-2j * math.pi * md.c_top / 24)) > TOL:
        return "T_0 does not match c_top"
    c = S @ S
    if not (np.all((np.abs(c) < TOL) | (np.abs(c - 1) < TOL))
            and np.all(np.abs(c).sum(axis=1).round(6) == 1)):
        return "S^2 is not a permutation"
    st = S * T[None, :]
    if np.abs(st @ st @ st - c).max() > 1e-6:
        return "(ST)^3 != S^2"
    d = md.dims()
    if np.abs(d.imag).max() > TOL or d.real.min() <= 0:
        return "dimensions are not positive reals"
    total = float((d.real**2).sum())
    if not _close(total, md_global_dim(family, n)):
        return f"sum d^2 = {total}, expected {md_global_dim(family, n)}"
    return None


def check_classify(obj: dict, group: str) -> str | None:
    k = 2 ** prime_power_types(group)
    n = order(group)
    if math.prod(obj["group"]) != n:
        return f"group {obj['group']} for --group {group}"
    if obj["metric_classes"] != k or obj["mp_classes"] != 2 * k:
        return f"{obj['metric_classes']} metric classes, expected {k}"
    if len(obj["qforms"]) != k or any(len(q) != n for q in obj["qforms"]):
        return "qform list has the wrong shape"
    return None


def _lattice_rank_det(spec: str) -> tuple[int, int]:
    rank, det = 0, 1
    for part in spec.split("+"):
        kind, m = part[0], int(part[1:])
        rank += m
        det *= m + 1 if kind == "A" else {6: 3, 7: 2, 8: 1}[m]
    return rank, det


def check_disc(obj: dict, lattice: str) -> str | None:
    rank, det = _lattice_rank_det(lattice)
    if math.prod(obj["group"]) != det or len(obj["qform"]) != det:
        return f"discriminant group of order {math.prod(obj['group'])}, expected {det}"
    if obj["central_charge"] % 8 != rank % 8:
        return f"Gauss charge {obj['central_charge']} != rank {rank} mod 8"
    return None


def check_glue_e8(obj: dict) -> str | None:
    if obj["rank"] != 8 or obj["det"] != 1 or obj.get("root_count") != 240:
        return f"glued lattice rank {obj['rank']} det {obj['det']} roots {obj.get('root_count')}"
    return None


def check_graph(obj: dict, which: str, group: str) -> str | None:
    n = order(group)
    even = n * n + 1 if which == "lr-principal" else n * (2 + (n - 1) // 2)
    ev, od, edges = obj["even_vertices"], obj["odd_vertices"], obj["edges"]
    if (len(ev), len(od), len(edges)) != (even, n, n * (n + 1)):
        return f"graph sizes {(len(ev), len(od), len(edges))}"
    evs, ods = set(ev), set(od)
    adj = {v: set() for v in ev + od}
    for e, o in edges:
        if e not in evs or o not in ods:
            return "edge is not even-odd"
        adj[e].add(o)
        adj[o].add(e)
    seen, todo = {obj["star"]}, [obj["star"]]
    while todo:
        for nxt in adj[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return None if len(seen) == len(adj) else "graph is not connected"


def check_hypergroup(obj: dict, group: str) -> str | None:
    n = order(group)
    table = obj["character_table"]
    sizes = (len(obj["hypergroup"]["elements"]), len(obj["dual"]["elements"]),
             len(table["rows"]), len(table["columns"]))
    if sizes != (n + 1,) * 4:
        return f"hypergroup sizes {sizes}"
    chi = np.array([[cyc(x) for x in row] for row in table["entries"]])
    w = np.array([float(_rat(x)) for x in table["weights"]])
    gram = (chi * w[None, :]) @ chi.conj().T
    off = gram - np.diag(np.diag(gram))
    return None if np.abs(off).max() < TOL else "character rows are not orthogonal"


def _ring_facts(obj: dict, rank: int, global_dim: int) -> str | None:
    ring, check = obj["ring"], obj["check"]
    if len(ring["labels"]) != rank:
        return f"ring rank {len(ring['labels'])}, expected {rank}"
    if not check["ok"]:
        return "ring check reports violations"
    total = sum(d * d for d in check["fp_dims"])
    if not _close(total, global_dim):
        return f"sum of FP dims^2 = {total}, expected {global_dim}"
    return None


def ring_entries(obj: dict) -> set:
    names = obj["ring"]["label_names"]
    return {(names[i], names[j], names[k], m) for i, j, k, m in obj["ring"]["nonzero"]}


def check_rules(obj: dict, rules: str, group: str) -> str | None:
    n = order(group)
    rank, dim = {"ty": (n + 1, 2 * n), "genty": (2 * n + 2, 4 * n),
                 "genmp": ((n + 7) // 2, 4 * n)}[rules]
    return _ring_facts(obj, rank, dim)


def check_verlinde(obj: dict, family: str, group: str, rule_table: dict | None) -> str | None:
    n = order(group)
    why = _ring_facts(obj, md_rank(family, n), md_global_dim(family, n))
    if why is None and rule_table is not None and ring_entries(obj) != ring_entries(rule_table):
        why = "Verlinde ring differs from the genmp rule table"
    return why


def check_fs(obj: dict, md: MD, index: int) -> str | None:
    nu = obj["nu"]
    if obj["label"] != md.names[index] or nu not in (-1, 0, 1):
        return f"indicator {nu} for {obj['label']}"
    if index == 0 and nu != 1:
        return "the unit has indicator != 1"
    if (nu == 0) == md.self_dual(index):
        return f"indicator {nu} contradicts self-duality of {obj['label']}"
    return None


def check_equiv(obj: dict, a: MD, b: MD, equivalent: bool) -> str | None:
    w = obj["witness"]
    if not equivalent:
        if a.rank == b.rank and a.invariants() == b.invariants():
            return "cannot confirm inequivalence: (dimension, twist) multisets agree"
        return None if w is None else "witness for inequivalent data"
    if w is None:
        return "no witness for equivalent data"
    m = list(w["mapping"])
    if sorted(m) != list(range(a.rank)) or m[0] != 0 or a.rank != b.rank:
        return "witness is not a unit-fixing bijection"
    zeta = cmath.exp(2j * math.pi * float(_rat(w["zeta_exponent"])))
    if np.abs(b.S[np.ix_(m, m)] - a.S).max() > TOL:
        return "witness does not preserve S"
    if np.abs(b.T[m] - zeta * a.T).max() > TOL:
        return "witness does not preserve T up to zeta"
    return None


def check_condense(obj: dict, parent: MD, child: MD) -> str | None:
    cert = obj["certificate"]
    if cert is None:
        return "no condensation certificate"
    B = np.array(cert["matrix"], dtype=float)
    if B.shape != (parent.rank, child.rank) or B.min() < 0 or B[0, 0] != 1:
        return "branching matrix has the wrong shape or entries"
    zeta = cmath.exp(2j * math.pi * float(_rat(cert["zeta_exponent"])))
    if np.abs(parent.S @ B - B @ child.S).max() > TOL:
        return "S_parent B != B S_child"
    if np.abs(parent.T[:, None] * B - zeta * B * child.T[None, :]).max() > TOL:
        return "T_parent B != zeta B T_child"
    return None


def check(op_check: dict, obj: dict, inputs: dict) -> str | None:
    """Dispatch on the op's check spec; ``inputs`` holds consume's
    decoded inputs (``MD``) and rule tables (raw JSON) by name."""
    kind = op_check["kind"]
    if "error" in obj:
        return f"error object: {obj['error']}"
    if kind == "md":
        return check_md(obj, op_check["family"], op_check["group"])
    if kind == "classify":
        return check_classify(obj, op_check["group"])
    if kind == "disc":
        return check_disc(obj, op_check["lattice"])
    if kind == "glue-e8":
        return check_glue_e8(obj)
    if kind == "graph":
        return check_graph(obj, op_check["which"], op_check["group"])
    if kind == "hypergroup":
        return check_hypergroup(obj, op_check["group"])
    if kind == "rules":
        return check_rules(obj, op_check["rules"], op_check["group"])
    if kind == "verlinde":
        rules = op_check.get("rules")
        return check_verlinde(obj, op_check["family"], op_check["group"],
                              inputs[rules] if rules else None)
    if kind == "fs":
        return check_fs(obj, inputs[op_check["input"]], op_check["index"])
    if kind == "equiv":
        return check_equiv(obj, inputs[op_check["a"]], inputs[op_check["b"]],
                           op_check["equivalent"])
    if kind == "condense":
        return check_condense(obj, inputs[op_check["parent"]], inputs[op_check["child"]])
    raise ValueError(f"unknown check kind {kind!r}")
