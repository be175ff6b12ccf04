"""Run one tycat CLI op in-process with instruments around the calls into
each module, then write what they recorded as JSON.

    python3 perfbench/tracechild.py --mode spans|count --out FILE --op ID -- ARGV...
    python3 perfbench/tracechild.py --mode import

``spans`` wraps the public functions of each module in every namespace that
imported them by name (``tycat.cli`` holds its own references to the
builders, ``md_to_json`` and ``classify_metric_groups``) and records one
span (name, start, end, parent) per call; tracemalloc runs only inside
``verify_verlinde`` and ``check_fusion_ring``, for their peaks.  ``count``
instead counts ``CycNum`` operations and ``RootOfUnity`` constructions, in
a separate run so that the counting does not inflate span self times.
``import`` prints the time to import ``tycat.cli``.  Spans and counters
stay in memory until the op ends.  Nothing under ``src/`` is
changed; the wrappers are installed at run time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import tracemalloc
from collections import Counter

# span name -> (module, attribute) of the functions it wraps; "Class.meth"
# wraps a method on its class
SPANS = {
    "moddata.build": [("tycat.moddata", "pointed_md"), ("tycat.moddata", "ty_center_md"),
                      ("tycat.moddata", "mp_md")],
    "moddata.validate": [("tycat.moddata", "ModularData.validate")],
    "moddata.to_json": [("tycat.moddata", "md_to_json")],
    "moddata.from_json": [("tycat.moddata", "md_from_json")],
    "moddata.fusion_ring": [("tycat.moddata", "ModularData.fusion_ring")],
    "moddata.equiv": [("tycat.moddata", "md_equivalent")],
    "moddata.fs": [("tycat.moddata", "bantay_fs")],
    "moddata.condense": [("tycat.moddata", "verify_condensation")],
    "modcheck.pack": [("tycat.modcheck", "MatProver.pack")],
    "modcheck.verify_product": [("tycat.modcheck", "MatProver.verify_product")],
    "modcheck.verify_tstst": [("tycat.modcheck", "MatProver.verify_tstst")],
    "modcheck.verify_verlinde": [("tycat.modcheck", "MatProver.verify_verlinde")],
    "quadforms.classify": [("tycat.quadforms", "classify_metric_groups")],
    "quadforms.metric_equiv": [("tycat.quadforms", "metric_equiv")],
    "quadforms.gauss_charge": [("tycat.quadforms", "gauss_central_charge")],
    "groups.automorphisms": [("tycat.groups", "automorphisms")],
    "fusionrings.check": [("tycat.fusionrings", "check_fusion_ring")],
    "fusionrings.rules": [("tycat.fusionrings", "ty_fusion_ring"),
                          ("tycat.fusionrings", "gen_ty_fusion_ring"),
                          ("tycat.fusionrings", "gen_mp_fusion_ring")],
    "lattices.disc": [("tycat.lattices", "discriminant_form")],
    "lattices.glue": [("tycat.lattices", "glue")],
    "lattices.count_roots": [("tycat.lattices", "count_roots")],
    "intmat.snf": [("tycat.intmat", "smith_normal_form")],
    "graphs.build": [("tycat.graphs", "principal_graph"),
                     ("tycat.graphs", "dual_principal_graph")],
}
CYCNUM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__", "conj",
              "inverse", "promoted")
PEAKS = {"modcheck.verify_verlinde.peak_mb": ("tycat.modcheck", "MatProver.verify_verlinde"),
         "fusionrings.check.peak_mb": ("tycat.fusionrings", "check_fusion_ring")}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def peak(self, name: str, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), peak)

        return wrapper


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def patch(module: str, attr: str, make) -> None:
    """Replace the function in its home and in every tycat namespace that
    imported it by name."""
    owner, name = _resolve(module, attr)
    original = owner.__dict__[name]
    wrapped = make(original)
    setattr(owner, name, wrapped)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tycat" and mod is not owner:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``tycat.cli``."""

    def __init__(self, rec: Recorder, real):
        self._real = real
        self.dumps = rec.span("cli.json_encode", real.dumps)
        self.load = rec.span("cli.json_decode", real.load)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install_spans(rec: Recorder) -> None:
    import tycat.cli
    import tycat.modcheck
    import tycat.moddata

    for name, (module, attr) in PEAKS.items():
        patch(module, attr, functools.partial(rec.peak, name))
    for name, targets in SPANS.items():
        for module, attr in targets:
            patch(module, attr, functools.partial(rec.span, name))
    tycat.cli.json = _JsonProxy(rec, json)

    verlinde = tycat.modcheck.MatProver.verify_verlinde

    def verify_verlinde(self, s, tensor):
        r = s["coeffs"].shape[0]
        rec.counters["modcheck.verify_verlinde.cells"] += r * (r + 1) // 2 * len(self.points) * r
        return verlinde(self, s, tensor)

    tycat.modcheck.MatProver.verify_verlinde = verify_verlinde
    tensor = tycat.moddata.ModularData._verlinde_tensor
    data: set[int] = set()

    def verlinde_tensor(self, *args, **kwargs):
        data.add(id(self))  # the datum outlives the op, so ids stay distinct
        rec.counters["modcheck.verify_verlinde.data"] = len(data)
        return tensor(self, *args, **kwargs)

    tycat.moddata.ModularData._verlinde_tensor = verlinde_tensor


def install_counts(rec: Recorder) -> None:
    import tycat.cli  # noqa: F401 - loads every module
    from tycat.cyclo import CycNum, RootOfUnity

    for op in CYCNUM_OPS:
        if op in CycNum.__dict__:
            setattr(CycNum, op, rec.count("cyclo.cycnum_ops", CycNum.__dict__[op]))
    RootOfUnity.__post_init__ = rec.count("cyclo.rootofunity_new", RootOfUnity.__post_init__)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("spans", "count", "import"), required=True)
    ap.add_argument("--out")
    ap.add_argument("--op", default="")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "import":
        t0 = time.perf_counter()
        import tycat.cli  # noqa: F401
        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    rec = Recorder()
    (install_spans if args.mode == "spans" else install_counts)(rec)
    import tycat.cli

    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    main_span = rec.span("cli.main", tycat.cli.main)
    rc = 2
    try:
        rc = main_span(argv)
    finally:
        sys.stdout.flush()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"op": args.op, "rc": rc, "spans": rec.spans,
                       "counters": rec.counters, "peaks": rec.peaks}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
