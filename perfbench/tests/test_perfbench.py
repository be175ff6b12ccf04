"""Tests of the benchmark itself (not of tycat).

    python3 -m pytest perfbench/tests -q

They run small CLI ops through the real code, so they need the tycat
sources under ``src/`` of the same checkout.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def tycat(*argv: str, cwd: Path | None = None) -> dict:
    out = subprocess.run([sys.executable, "-m", "tycat", *argv], capture_output=True,
                         env=ENV, cwd=cwd, check=True)
    return json.loads(out.stdout)


def record_of(out: Path, argv, mode: str = "spans", cwd: Path | None = None) -> dict:
    """The record ``tracechild.py --mode MODE`` writes to ``out`` for one op."""
    subprocess.run([sys.executable, str(BENCH / "tracechild.py"), "--mode", mode,
                    "--out", str(out), "--", *argv], env=ENV, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def spans_of(tmp_path: Path, argv, cwd: Path | None = None) -> dict:
    return record_of(tmp_path / "rec.json", argv, cwd=cwd)


def span_names(record: dict) -> set[str]:
    return {s[0] for s in record["spans"]}


FAKE_NAMES = {name: [f"l{i}" for i in range(64)]
              for name in list(wl.CONSUME_MD) + list(wl.CONSUME_RELABELED)}


# -- op lists ------------------------------------------------------------------------


@pytest.mark.parametrize("make", [wl.sweep_ops, wl.big_build_ops,
                                  lambda: wl.consume_ops(FAKE_NAMES)])
def test_op_lists_are_identical_for_a_seed(make):
    for seed in (1, 2, 12345):
        a = wl.shuffled(make(), random.Random(seed))
        b = wl.shuffled(make(), random.Random(seed))
        assert [(o.id, o.argv, o.check) for o in a] == [(o.id, o.argv, o.check) for o in b]
    one = wl.shuffled(make(), random.Random(1))
    two = wl.shuffled(make(), random.Random(2))
    assert sorted(o.id for o in one) == sorted(o.id for o in two)
    assert len({o.id for o in one}) == len(one)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail_index(20) == 9 and run.tail_index(75) == 64
    assert run.tail_index(5) == 4  # fewer than 20: the maximum


# -- the output checker --------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    out = {
        "mp3": tycat("md", "mp", "--group", "3"),
        "mp3m": tycat("md", "mp", "--group", "3", "--sign", "-"),
        "classify15": tycat("classify", "--group", "15"),
        "glue": tycat("glue", "--lattice", "A2+E6", "--isotropic", "0,1"),
        "genmp3": tycat("fusion", "--rules", "genmp", "--group", "3"),
        "pt3": tycat("md", "pointed", "--group", "3", "--qform", "0,1/3,1/3"),
    }
    (d / "mp3.json").write_text(json.dumps(out["mp3"]))
    out["verlinde3"] = tycat("fusion", "--from-md", "mp3.json", cwd=d)
    (d / "mp3r.json").write_text(json.dumps(run.relabel(out["mp3"], 3)))
    out["equiv"] = tycat("equiv", "--a", "mp3.json", "--b", "mp3r.json", cwd=d)
    out["dir"] = d
    return out


def test_checker_accepts_real_outputs(outputs):
    mp3, mp3r = checks.MD(outputs["mp3"]), checks.MD(json.loads((outputs["dir"] / "mp3r.json").read_text()))
    assert checks.check_md(outputs["mp3"], "mp", "3") is None
    assert checks.check_md(outputs["mp3m"], "mp", "3") is None
    assert checks.check_md(outputs["pt3"], "pointed", "3") is None
    assert checks.check_classify(outputs["classify15"], "15") is None
    assert checks.check_glue_e8(outputs["glue"]) is None
    assert checks.check_rules(outputs["genmp3"], "genmp", "3") is None
    assert checks.check_verlinde(outputs["verlinde3"], "mp", "3", outputs["genmp3"]) is None
    assert checks.check_equiv(outputs["equiv"], mp3, mp3r, True) is None


def _negate(entry: dict) -> None:
    entry["coeffs"] = [[-p, q] for p, q in entry["coeffs"]]


def test_checker_rejects_a_flipped_s_sign(outputs):
    obj = copy.deepcopy(outputs["mp3"])
    _negate(obj["S"][2][3])
    assert checks.check_md(obj, "mp", "3") == "S is not symmetric"
    _negate(obj["S"][3][2])
    assert checks.check_md(obj, "mp", "3") == "S is not unitary"
    obj = copy.deepcopy(outputs["mp3"])
    _negate(obj["S"][0][0])
    assert checks.check_md(obj, "mp", "3") is not None


def test_checker_rejects_wrong_counts(outputs):
    obj = dict(outputs["classify15"], metric_classes=2, mp_classes=4)
    assert "metric classes" in checks.check_classify(obj, "15")
    assert checks.check_classify(outputs["classify15"], "9") is not None
    assert checks.check_glue_e8(dict(outputs["glue"], root_count=238)) is not None
    assert checks.check_md(outputs["mp3"], "mp", "5") is not None  # wrong rank
    assert checks.check_md(outputs["mp3"], "ty-center", "1") is not None


def test_checker_rejects_a_wrong_verlinde_ring(outputs):
    obj = copy.deepcopy(outputs["verlinde3"])
    i, j, k, n = obj["ring"]["nonzero"][-1]
    obj["ring"]["nonzero"][-1] = [i, j, k, n + 1]
    assert "genmp" in checks.check_verlinde(obj, "mp", "3", outputs["genmp3"])


def test_checker_rejects_a_bad_witness(outputs):
    a = checks.MD(outputs["mp3"])
    b = checks.MD(json.loads((outputs["dir"] / "mp3r.json").read_text()))
    obj = copy.deepcopy(outputs["equiv"])
    m = obj["witness"]["mapping"]
    m[1], m[2] = m[2], m[1]
    assert checks.check_equiv(obj, a, b, True) is not None
    assert checks.check_equiv({"witness": None}, a, b, True) is not None
    minus = checks.MD(outputs["mp3m"])
    assert checks.check_equiv(outputs["equiv"], a, minus, False) is not None
    assert checks.check_equiv({"witness": None}, a, minus, False) is None


def test_checker_rejects_a_wrong_indicator(outputs):
    md = checks.MD(outputs["mp3"])
    unit = md.names[0]
    assert checks.check_fs({"label": unit, "nu": 1}, md, 0) is None
    assert checks.check_fs({"label": unit, "nu": 0}, md, 0) is not None
    assert checks.check_fs({"label": unit, "nu": -1}, md, 0) is not None


def test_checker_reads_a_sparse_encoding(outputs):
    obj = copy.deepcopy(outputs["mp3"])

    def sparse(x):
        terms = [[e, f"{p}/{q}"] for e, (p, q) in enumerate(x["coeffs"]) if p]
        return {"conductor": x["conductor"], "terms": terms}

    obj["S"] = [[sparse(x) for x in row] for row in obj["S"]]
    obj["T"] = [sparse(x) for x in obj["T"]]
    del obj["float_view"]
    assert checks.check_md(obj, "mp", "3") is None
    obj["S"][1][1]["terms"] = [[e, str(-Fraction(c))] for e, c in obj["S"][1][1]["terms"]]
    assert checks.check_md(obj, "mp", "3") is not None


# -- the traced driver ---------------------------------------------------------------


def _ops(make, *ids):
    by_id = {o.id: o for o in make()}
    return [by_id[i].argv for i in ids]


# the layers each workload is expected to move (see README.md), with cheap
# ops of that workload that reach them
PAIRED = {
    "sweep": (
        _ops(wl.sweep_ops, "classify:15", "md-pointed:9", "disc:A2+E6", "glue:A2+E6",
             "graph:lr-dual:3", "fusion-rules:genmp:5"),
        {"cli.json_encode", "quadforms.classify", "quadforms.metric_equiv",
         "quadforms.gauss_charge", "groups.automorphisms", "moddata.build",
         "moddata.validate", "lattices.disc", "lattices.glue", "lattices.count_roots",
         "intmat.snf", "graphs.build", "fusionrings.rules"},
    ),
    "big-build": (
        _ops(wl.big_build_ops, "md-mp:45"),
        {"cli.json_encode", "moddata.build", "moddata.validate", "moddata.to_json",
         "modcheck.pack", "modcheck.verify_product", "modcheck.verify_tstst",
         "modcheck.verify_verlinde"},
    ),
}


@pytest.mark.parametrize("workload", sorted(PAIRED))
def test_each_paired_layer_records_a_call(tmp_path, workload):
    argvs, expected = PAIRED[workload]
    seen = set()
    for argv in argvs:
        seen |= span_names(spans_of(tmp_path, argv))
    assert expected <= seen, expected - seen


def test_consume_layers_and_verlinde_calls(tmp_path, outputs):
    d = outputs["dir"]
    (d / "pt3.json").write_text(json.dumps(outputs["pt3"]))
    fusion = spans_of(tmp_path, ("fusion", "--from-md", "mp3.json"), cwd=d)
    names = span_names(fusion)
    names |= span_names(spans_of(tmp_path, ("fs", "--md", "mp3.json", "--label", "alpha"), cwd=d))
    names |= span_names(spans_of(tmp_path, ("equiv", "--a", "mp3.json", "--b", "mp3r.json"), cwd=d))
    names |= span_names(spans_of(tmp_path, ("condense", "--parent", "mp3.json", "--child",
                                            "pt3.json", "--bosons", "unit,alpha"), cwd=d))
    expected = {"cli.json_decode", "moddata.from_json", "moddata.validate",
                "moddata.fusion_ring", "moddata.fs", "moddata.equiv", "moddata.condense",
                "fusionrings.check", "modcheck.verify_verlinde"}
    assert expected <= names, expected - names
    # the Verlinde proof runs twice per `fusion --from-md`: in validate and
    # again in fusion_ring, for one datum
    _, calls = tracing.self_times(fusion["spans"])
    assert calls["modcheck.verify_verlinde"] == 2
    assert fusion["counters"]["modcheck.verify_verlinde.data"] == 1
    assert fusion["peaks"]["fusionrings.check.peak_mb"] > 0


def test_big_build_never_checks_a_fusion_ring(tmp_path):
    # TY(Z11) is left out for time: it takes the TY(Z9) code path
    for op in wl.big_build_ops():
        if op.id == "md-ty-center:11":
            continue
        names = span_names(spans_of(tmp_path, op.argv))
        assert "moddata.build" in names
        assert "fusionrings.check" not in names, op.id


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    self_s, calls = tracing.self_times(spans)
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0} and calls == {"a": 1, "b": 2, "c": 1}


def test_count_pass_reaches_the_layer_metrics(tmp_path):
    argv = ("md", "mp", "--group", "3")
    for mode in ("spans", "count"):
        record_of(tracing.record_path(tmp_path, 0, mode), argv, mode)
    metrics = tracing.layer_metrics(tmp_path, [False], {0: False})
    assert metrics["cyclo.cycnum_ops"] > 0
    assert metrics["cyclo.rootofunity_new"] > 0
    assert metrics["moddata.build_s"] > 0


def test_a_missing_record_is_empty_only_for_a_failed_op(tmp_path):
    assert tracing.layer_metrics(tmp_path, [True], {0: True})["trace.spans"] == 0
    with pytest.raises(FileNotFoundError):
        tracing.layer_metrics(tmp_path, [False], {})
    with pytest.raises(FileNotFoundError):
        tracing.layer_metrics(tmp_path, [True], {0: False})


# -- microbenchmarks and the bare directory --------------------------------------------


def test_microbenchmarks_report_every_metric():
    out = subprocess.run([sys.executable, str(BENCH / "micro.py"), "3"], env=ENV,
                         capture_output=True, check=True)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
             if m["name"].startswith("cyclo.") and "_us" in m["name"]}
    assert set(json.loads(out.stdout)) == names


def test_micro_reference_product():
    sys.path.insert(0, str(ROOT / "src"))
    import micro
    from tycat.cyclo import CycNum

    assert micro.cyclotomic(12) == [1, 0, -1, 0, 1]
    assert micro.cyclotomic(9) == [1, 0, 0, 1, 0, 0, 1]
    # zeta_3 * zeta_3 = zeta_3^2 = -1 - zeta_3
    z = CycNum(3, {1: 1})
    assert micro.reference_product(z, z, micro.cyclotomic(3)) == CycNum(3, {0: -1, 1: -1})
    assert micro.reference_product(z, z, micro.cyclotomic(3)) != z


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
                          "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == b""


# -- host speed ----------------------------------------------------------------------


def test_host_speed_scales_by_the_median_reference_time():
    run.WORK.mkdir(exist_ok=True)
    host = run.HostSpeed()
    host.sample(force=True)
    assert len(host.walls) == 1 and host.walls[0] > 0
    host.sample()  # less than REFERENCE_EVERY_S after the last sample
    assert len(host.walls) == 1
    host.walls = [0.2, 0.6, 0.3]
    assert host.scale() == pytest.approx(run.REFERENCE_S / 0.3)


def test_reference_child_does_not_import_tycat():
    probe = "import runpy, sys; runpy.run_path(sys.argv[1]); print(any(m.startswith('tycat') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe, str(BENCH / "reference.py")], env=ENV,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-1] == "False"
