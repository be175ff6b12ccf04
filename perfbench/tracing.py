"""Per-layer metrics of the traced run, aggregated from what
``tracechild.py`` wrote for each op and from ``micro.py``."""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

IMPORT_RUNS = 5

# metric -> span whose summed self time it reports
SELF_TIME = {
    "cli.json_encode_s": "cli.json_encode",
    "cli.json_decode_s": "cli.json_decode",
    "moddata.build_s": "moddata.build",
    "moddata.validate_s": "moddata.validate",
    "moddata.to_json_s": "moddata.to_json",
    "moddata.from_json_s": "moddata.from_json",
    "moddata.fusion_ring_s": "moddata.fusion_ring",
    "moddata.equiv_s": "moddata.equiv",
    "moddata.fs_s": "moddata.fs",
    "moddata.condense_s": "moddata.condense",
    "modcheck.pack_s": "modcheck.pack",
    "modcheck.verify_product_s": "modcheck.verify_product",
    "modcheck.verify_tstst_s": "modcheck.verify_tstst",
    "modcheck.verify_verlinde_s": "modcheck.verify_verlinde",
    "quadforms.classify_s": "quadforms.classify",
    "quadforms.gauss_charge_s": "quadforms.gauss_charge",
    "groups.automorphisms_s": "groups.automorphisms",
    "fusionrings.check_s": "fusionrings.check",
    "fusionrings.rules_s": "fusionrings.rules",
    "lattices.disc_s": "lattices.disc",
    "lattices.glue_s": "lattices.glue",
    "lattices.count_roots_s": "lattices.count_roots",
    "intmat.snf_s": "intmat.snf",
    "graphs.build_s": "graphs.build",
}
# metric -> span whose calls it counts
CALLS = {
    "modcheck.verify_verlinde.calls": "modcheck.verify_verlinde",
    "quadforms.metric_equiv.calls": "quadforms.metric_equiv",
}


def self_times(spans: list[list]) -> tuple[dict, dict]:
    """Summed self time and call count per span name.  A span's self time
    is its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for (name, start, end, _), c in zip(spans, child):
        self_s[name] += end - start - c
        calls[name] += 1
    return self_s, calls


def record_path(spans_dir: Path, i: int, mode: str) -> Path:
    """Where ``tracechild.py --mode MODE`` writes the record of op ``i``."""
    return spans_dir / f"{i}.{mode}.json"


def load_op(path: Path, failed: bool) -> dict:
    """One op's record.  An op that failed may have been killed before it
    wrote one, and then counts as empty; a missing record of an op that
    succeeded is an error."""
    if failed and not path.exists():
        return {"spans": [], "counters": {}, "peaks": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(spans_dir: Path, spanned: list[bool], counted: dict[int, bool]) -> dict:
    """Aggregate the span records of ops 0..len(spanned)-1 and the count
    records of the ops in ``counted``; each list or map gives, per op
    index, whether that op failed."""
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counters: dict = defaultdict(int)
    peaks: dict = defaultdict(float)
    for i, failed in enumerate(spanned):
        rec = load_op(record_path(spans_dir, i, "spans"), failed)
        s, c = self_times(rec["spans"])
        for k, v in s.items():
            self_s[k] += v
        for k, v in c.items():
            calls[k] += v
        for k, v in rec["counters"].items():
            counters[k] += v
        for k, v in rec["peaks"].items():
            peaks[k] = max(peaks[k], v)
    for i, failed in counted.items():
        for k, v in load_op(record_path(spans_dir, i, "count"), failed)["counters"].items():
            counters[k] += v
    out = {m: self_s.get(name, 0.0) for m, name in SELF_TIME.items()}
    out.update({m: calls.get(name, 0) for m, name in CALLS.items()})
    attempts = calls.get("modcheck.verify_verlinde", 0)
    out["modcheck.verify_verlinde.useful_ratio"] = (
        counters["modcheck.verify_verlinde.data"] / attempts if attempts else 0.0)
    for name in ("modcheck.verify_verlinde.cells", "cyclo.cycnum_ops", "cyclo.rootofunity_new"):
        out[name] = counters.get(name, 0)
    out.update(peaks)
    out["trace.spans"] = sum(calls.values())
    return out


def import_time(child: list[str], run_child, out_path: Path) -> float:
    """Median in-process time to import ``tycat.cli``, each in a fresh child."""
    times = []
    for _ in range(IMPORT_RUNS):
        rc = run_child(child + ["--mode", "import"], out_path)[3]
        if rc != 0:
            raise SystemExit("importing tycat.cli failed")
        times.append(json.loads(out_path.read_text())["import_s"])
    out_path.unlink()
    return statistics.median(times)


def microbenchmarks(run_child, script: Path, out_path: Path, seed: int) -> dict | None:
    """The ``micro.py`` timings, or None when a cross-check failed."""
    rc = run_child([sys.executable, str(script), str(seed)], out_path)[3]
    out = json.loads(out_path.read_text()) if rc == 0 else None
    out_path.unlink()
    return out
