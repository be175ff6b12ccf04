import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tycat
from tycat import cli, fusionrings, graphs, modcheck
from tycat.cli import main
from tycat.cyclo import euler_phi, factorize
from tycat.groups import FinAbGroup
from tycat.quadforms import standard_qform


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_disc_a2(capsys):
    code, out, _ = run_cli(capsys, "disc", "--lattice", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == [3]
    assert [Fraction(str(x)) for x in payload["qform"]] == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 3),
    ]


def test_disc_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "disc", "--lattice", "A4")
    _, out2, _ = run_cli(capsys, "disc", "--lattice", "A4")
    assert out1 == out2


def test_classify_15(capsys):
    code, out, _ = run_cli(capsys, "classify", "--group", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["metric_classes"] == 4
    assert payload["mp_classes"] == 8


def test_glue_to_e8(capsys):
    # read the discriminant form, pick a nonzero isotropic element, glue it
    _, out, _ = run_cli(capsys, "disc", "--lattice", "A2+E6")
    disc = json.loads(out)
    from itertools import product

    coords = next(
        c
        for c in product(range(3), range(3))
        if c != (0, 0) and Fraction(str(disc["qform"][3 * c[0] + c[1]])) == 0
    )
    code, out, _ = run_cli(
        capsys, "glue", "--lattice", "A2+E6",
        "--isotropic", f"{coords[0]},{coords[1]}",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 8 and payload["det"] == 1
    assert payload["root_count"] == 240


def test_glue_rejects_bad_subgroup(capsys):
    code, out, err = run_cli(
        capsys, "glue", "--lattice", "A2", "--isotropic", "1"
    )
    assert code == 1
    assert "error" in json.loads(out)


def test_md_fs_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "md", "mp", "--group", "3", "--bichar", "default", "--sign", "+"
    )
    assert code == 0
    md_path = tmp_path / "md.json"
    md_path.write_text(out)
    code, out, _ = run_cli(capsys, "fs", "--md", str(md_path), "--label", "rho0")
    assert code == 0
    assert json.loads(out) == {"label": "rho0", "nu": 1}


def test_md_roundtrip_via_equiv(tmp_path, capsys):
    _, out_plus, _ = run_cli(
        capsys, "md", "mp", "--group", "3", "--sign", "+"
    )
    _, out_minus, _ = run_cli(
        capsys, "md", "mp", "--group", "3", "--sign", "-"
    )
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(out_plus)
    b.write_text(out_minus)
    code, out, _ = run_cli(capsys, "equiv", "--a", str(a), "--b", str(a))
    assert code == 0
    assert json.loads(out)["witness"]["mapping"] == list(range(5))
    code, out, _ = run_cli(capsys, "equiv", "--a", str(a), "--b", str(b))
    assert json.loads(out)["witness"] is None


def test_md_json_reparses_identically(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "md", "pointed", "--group", "3", "--qform", "0,1/3,1/3")
    blob = json.loads(out)
    from tycat.moddata import md_from_json, md_to_json

    assert md_to_json(md_from_json(blob)) == blob


def test_fusion_rules(capsys):
    # rank of each rule table on Z5: G + rho, Dih(G) + rho+-, (|G|+7)/2
    for rules, rank in (("genmp", 6), ("ty", 6), ("genty", 12)):
        code, out, _ = run_cli(capsys, "fusion", "--rules", rules, "--group", "5")
        assert code == 0, out
        payload = json.loads(out)
        assert payload["check"]["ok"] is True
        assert len(payload["ring"]["labels"]) == rank


def test_fusion_rules_check_the_ring_once(capsys, monkeypatch):
    calls = []
    real = fusionrings.check_fusion_ring

    def counted(ring, *args, **kwargs):
        calls.append(ring.rank)
        return real(ring, *args, **kwargs)

    # cli imports it from fusionrings when the command runs
    monkeypatch.setattr(fusionrings, "check_fusion_ring", counted)
    code, out, _ = run_cli(capsys, "fusion", "--rules", "genmp", "--group", "15")
    assert code == 0, out
    assert json.loads(out)["check"]["ok"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("batch", [1, 3, cli._EMIT_BATCH])
def test_emit_matches_json_dumps(capsys, monkeypatch, batch):
    obj = {
        "a": [1, 2.5, None, True, "x\u00e9\"y"],
        "b": {"c": [[], {}, [{"d": -0.0, "e": 1e300}]], "f": "1/3"},
        "g": [[i, str(i), [i / 7]] for i in range(50)],
    }
    monkeypatch.setattr(cli, "_EMIT_BATCH", batch)
    cli._emit(obj)
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


def emitted(obj, batch: int) -> str:
    buf = io.StringIO()
    with mock.patch.object(cli, "_EMIT_BATCH", batch), contextlib.redirect_stdout(buf):
        cli._emit(obj)
    return buf.getvalue()


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**63)),
    st.floats(),  # nan and +-inf included
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, float("nan"), float("inf"), -float("inf")]),
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\"\\/", "\ud800", "\u2028"]),
)
json_keys = st.one_of(st.text(max_size=5), st.integers(), st.floats(), st.booleans(), st.none())
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(json_keys, inner, max_size=5),
    ),
    max_leaves=30,
)


@st.composite
def shared_docs(draw):
    """A document that holds one object twice at one depth and again at
    other depths, around independent parts."""
    shared = draw(json_docs)
    return {
        "pair": [shared, shared],
        "deeper": [[shared], {"x": shared, "y": [shared, draw(json_docs)]}],
        "rest": draw(json_docs),
        "again": shared,
    }


@pytest.mark.parametrize("batch", [1, 3, cli._EMIT_BATCH])
@settings(max_examples=60, deadline=None)
@given(obj=st.one_of(json_docs, shared_docs()))
def test_emit_writes_json_dumps_of_any_document(batch, obj):
    assert emitted(obj, batch) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), [1, Fraction(1, 3)], {"a": {"b": [np.float32(1.5)]}}, {"k": {1, 2}},
     {(1, 2): 3}, [{frozenset(): 1}]],
    ids=["int64", "fraction", "float32", "set", "tuple-key", "frozenset-key"],
)
def test_emit_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        emitted(obj, cli._EMIT_BATCH)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("kind", ["pointed", "ty-center", "mp"])
def test_default_form_on_an_even_group_asks_for_a_qform(capsys, kind):
    code, out, err = run_cli(capsys, "md", kind, "--group", "4")
    assert code == 1
    message = json.loads(out)["error"]
    assert "odd order" in message and "--qform" in message and "order 4" in message
    assert "classification" not in message and "Traceback" not in err


def test_fusion_from_md(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "md", "mp", "--group", "3")
    p = tmp_path / "md.json"
    p.write_text(out)
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(p))
    assert code == 0
    assert json.loads(out)["check"]["ok"] is True


def test_fusion_from_md_reads_the_report_validate_proved(tmp_path, capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "md", "ty-center", "--group", "3")
    p = tmp_path / "md.json"
    p.write_text(out)
    calls = []
    real = fusionrings.check_fusion_ring

    def counted(ring, *args, **kwargs):
        calls.append(ring.rank)
        return real(ring, *args, **kwargs)

    # cli imports it from fusionrings when the command runs
    monkeypatch.setattr(fusionrings, "check_fusion_ring", counted)
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(p))
    assert code == 0 and calls == []
    check = json.loads(out)["check"]
    assert check["ok"] is True and check["violations"] == []
    assert check["global_dim"] is None and sum(d * d for d in check["fp_dims"]) == pytest.approx(36)


@pytest.mark.parametrize("kind", ["ty-center", "mp"])
def test_md_writes_sparse_exact_entries(capsys, kind):
    from tycat.moddata import md_from_json, md_to_json

    code, out, _ = run_cli(capsys, "md", kind, "--group", "3")
    assert code == 0
    assert '"coeffs"' not in out and '"approx"' not in out
    blob = json.loads(out)
    assert set(blob["S"][0][0]) == {"conductor", "den", "terms"}
    assert md_to_json(md_from_json(blob)) == blob


def test_fusion_from_dense_md_is_refused(tmp_path, capsys):
    # the dense form earlier versions wrote, one [p, q] per power of zeta,
    # is no longer read: a domain error, not a traceback
    _, out, _ = run_cli(capsys, "md", "mp", "--group", "3")
    blob = json.loads(out)
    n = blob["conductor"]
    blob["S"][1][2] = {"conductor": n, "coeffs": [[1, 1]] + [[0, 1]] * (euler_phi(n) - 1)}
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(blob, indent=2))
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(dense))
    assert code == 1
    assert json.loads(out)["error"] == (
        "S[1][2]: cyclotomic entry needs 'terms' (the dense 'coeffs' form is no longer read)"
    )


@pytest.mark.parametrize("key, index, message", [
    ("S", 1, "S has 4 entries, labels has 5"),
    ("labels", 2, "label_names has 5 entries, labels has 4"),
])
def test_fusion_from_malformed_md_is_domain_error(tmp_path, capsys, key, index, message):
    _, out, _ = run_cli(capsys, "md", "mp", "--group", "3")
    blob = json.loads(out)
    del blob[key][index]
    p = tmp_path / "md.json"
    p.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "fusion", "--from-md", str(p))
    assert code == 1
    assert message in json.loads(out)["error"]


@pytest.mark.parametrize("factor", [3, -1])
def test_fusion_from_md_refuses_a_grading_entry_other_than_0_or_1(tmp_path, capsys, factor):
    _, out, _ = run_cli(capsys, "md", "mp", "--group", "3")
    blob = json.loads(out)
    blob["grading"] = [factor * g for g in blob["grading"]]
    p = tmp_path / "md.json"
    p.write_text(json.dumps(blob))
    code, out, err = run_cli(capsys, "fusion", "--from-md", str(p))
    assert code == 1
    assert json.loads(out)["error"] == "grading entries must be 0 or 1"
    assert "Traceback" not in err


def test_fusion_from_md_refuses_a_huge_conductor(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "md", "mp", "--group", "3")
    blob = json.loads(out)
    blob["conductor"] = 10**16 + 61
    p = tmp_path / "md.json"
    p.write_text(json.dumps(blob))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(p))
    assert time.perf_counter() - start < 5
    assert code == 1
    assert "exceeds" in json.loads(out)["error"]


def test_fusion_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "--group", "3"])
    assert exc.value.code == 2


def test_condense_cli(tmp_path, capsys):
    _, parent, _ = run_cli(capsys, "md", "mp", "--group", "3", "--sign", "+")
    _, child, _ = run_cli(capsys, "md", "pointed", "--group", "3", "--qform", "0,1/3,1/3")
    pp = tmp_path / "p.json"
    cc = tmp_path / "c.json"
    pp.write_text(parent)
    cc.write_text(child)
    expected = {
        "matrix": [[1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 1]],
        "zeta_exponent": 0,
    }
    # the bosons form a set: repeats and order do not change the answer
    for bosons in ("unit,alpha", "1,1", "alpha,unit,alpha"):
        code, out, _ = run_cli(
            capsys, "condense", "--parent", str(pp), "--child", str(cc), "--bosons", bosons,
        )
        assert code == 0
        assert json.loads(out)["certificate"] == expected, bosons
    code, out, err = run_cli(
        capsys, "condense", "--parent", str(pp), "--child", str(cc), "--bosons", "0,99",
    )
    assert code == 1
    assert json.loads(out)["error"] == "boson index 99 is outside [0, 5)"
    assert "Traceback" not in err


def test_condense_looks_a_non_ascii_digit_up_as_a_name(tmp_path, capsys):
    # the Arabic-Indic one is a name, not the index 1, and no label has it
    _, parent, _ = run_cli(capsys, "md", "mp", "--group", "3", "--sign", "+")
    _, child, _ = run_cli(capsys, "md", "pointed", "--group", "3", "--qform", "0,1/3,1/3")
    pp, cc = tmp_path / "p.json", tmp_path / "c.json"
    pp.write_text(parent)
    cc.write_text(child)
    code, out, err = run_cli(
        capsys, "condense", "--parent", str(pp), "--child", str(cc), "--bosons", "0,\u0661",
    )
    assert code == 1
    assert json.loads(out)["error"] == "no label named '\u0661'"
    assert "Traceback" not in err


def test_graph_commands(capsys):
    code, out, _ = run_cli(capsys, "graph", "lr-principal", "--group", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["even_vertices"]) == 10
    code, out2, _ = run_cli(capsys, "graph", "lr-dual", "--group", "3", "--dot")
    assert code == 0
    assert out2.startswith('graph "ty_dual_principal_3"')
    _, out3, _ = run_cli(capsys, "graph", "lr-dual", "--group", "3", "--dot")
    assert out2 == out3


def test_hypergroup_cli(capsys):
    code, out, _ = run_cli(capsys, "hypergroup", "--group", "3", "--table")
    assert code == 0
    payload = json.loads(out)
    assert payload["hypergroup"]["elements"][-1] == "tau"
    assert len(payload["character_table"]["rows"]) == 4


def test_malformed_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--group", "3,x"])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["\u0661\u0665", "1_5", "+15", "3,\u0665"])
@pytest.mark.parametrize("command", [["classify"], ["md", "pointed"]])
def test_group_takes_ascii_digits_only(capsys, command, spec):
    # int() reads the Arabic-Indic "15", "1_5" and "+15" as 15
    with pytest.raises(SystemExit) as exc:
        main([*command, "--group", spec])
    assert exc.value.code == 2
    assert "--group" in capsys.readouterr().err


def test_group_orders_take_ascii_digits_around_whitespace():
    assert cli._group_orders(" 3, 5 ,") == [3, 5]


@pytest.mark.parametrize("vec", ["0,\u0661", "0,1_0", "0,+1"])
def test_isotropic_coordinates_take_ascii_digits_only(capsys, vec):
    # "0,1" glues A2+E6 to E8; int() would read each of these as 0,1 or 0,10
    code, out, err = run_cli(capsys, "glue", "--lattice", "A2+E6", "--isotropic", vec)
    assert code == 1
    assert "expected an integer in ASCII digits" in json.loads(out)["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("item", ["\u0661/\u0663", "1_0/30", "0.5", "+1/3", "1/-3", "1/3/1", ""])
@pytest.mark.parametrize("flag", ["--qform", "--bichar"])
def test_rationals_take_ascii_digits_only(capsys, flag, item):
    # Fraction() reads the first two as 1/3 and 10/30, which made the same
    # data as --qform 0,1/3,1/3 or --bichar 1/3
    kind, spec = ("pointed", f"0,{item},{item}") if flag == "--qform" else ("mp", item)
    code, out, err = run_cli(capsys, "md", kind, "--group", "3", flag, spec)
    assert code == 1
    assert "expected a rational in ASCII digits" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_rationals_take_ascii_digits_around_whitespace():
    assert cli._fractions(" 0, -1/3 ,2") == [0, Fraction(-1, 3), 2]


@pytest.mark.parametrize("argv", [
    ("pointed", "--bichar", "1/3"),
    ("pointed", "--qform", "0,1/3,1/3", "--bichar", "default"),
    ("ty-center", "--qform", "0,2/3,2/3", "--bichar", "default"),
    ("mp", "--qform", "default", "--bichar", "default"),
])
def test_md_refuses_a_bichar_it_would_ignore(capsys, argv):
    # pointed data never read --bichar, and --bichar overrode --qform
    with pytest.raises(SystemExit) as exc:
        main(["md", argv[0], "--group", "3", *argv[1:]])
    assert exc.value.code == 2
    assert "--bichar" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "1000000000000000003"),
    ("graph", "lr-dual", "--group", "4099"),
    ("hypergroup", "--group", "4099"),
])
def test_oversize_group_is_refused_before_factoring(argv):
    # |G| is checked against MAX_TABLE_ORDER before any cyclic order is
    # factored; factoring the first or building the others would not end
    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "tycat", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=5,
    )
    assert out.returncode == 1, out.stderr
    assert "exceeds 2048" in json.loads(out.stdout)["error"]


@pytest.mark.parametrize("bichar, same", [
    (("--group", "3", "--bichar", "2/3"), ("--group", "3", "--qform", "0,1/3,1/3")),
    (("--group", "3,3", "--bichar", "2/3,0;0,2/3"), ("--group", "3,3")),
])
def test_md_builds_from_an_explicit_bichar_matrix(capsys, bichar, same):
    # b = dq: the rows 2/3 and 2/3,0;0,2/3 are the bicharacters of the forms
    # q(x) = zeta_3^{x^2} and of the default form on Z3 x Z3
    code, out, _ = run_cli(capsys, "md", "mp", *bichar)
    assert code == 0
    assert (code, out) == run_cli(capsys, "md", "mp", *same)[:2]


@pytest.mark.parametrize("spec, name", [
    ("A1_0", "A1_0"), ("A\u0661", "A\u0661"), ("A", "A"), ("A+E8", "A"),
])
def test_a_series_index_takes_ascii_digits_only(capsys, spec, name):
    # int() read A1_0 as A10 (Z11) and A\u0661 as A1 (Z2), and failed on A
    code, out, err = run_cli(capsys, "disc", "--lattice", spec)
    assert code == 1
    assert json.loads(out)["error"] == f"unknown lattice name {name!r}"
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_lattice_is_domain_error(capsys):
    code, out, _ = run_cli(capsys, "disc", "--lattice", "Q9")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ("disc", "--lattice", "+"),
    ("glue", "--lattice", "+", "--isotropic", "1"),
    ("md", "pointed", "--group", "3", "--qform", "0,1/3,1/0"),
    ("md", "mp", "--group", "3", "--bichar", "1/0"),
])
def test_malformed_argument_ends_without_a_traceback(argv):
    # a lattice sum naming no lattice and a zero denominator are input errors
    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "tycat", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode in (1, 2) and "Traceback" not in out.stderr, out.stderr
    if out.returncode == 1:
        assert "error" in json.loads(out.stdout)


def _refused_under_a_3_gib_cap(argv) -> str:
    """The JSON error of a CLI run under a 3 GiB address-space cap, which
    must exit 1 without a traceback in under 20 s."""
    import resource

    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    cap = 3 << 30
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "tycat", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert time.perf_counter() - start < 20
    assert out.returncode == 1 and "Traceback" not in out.stderr, out.stderr
    return json.loads(out.stdout)["error"]


@pytest.mark.parametrize("argv, rank", [
    (("fusion", "--rules", "ty", "--group", "1001"), 1002),
    (("fusion", "--rules", "genty", "--group", "999"), 2000),
    (("hypergroup", "--group", "1001"), 1002),
])
def test_oversized_rule_tables_are_refused_at_once(argv, rank):
    # their cubes would take 7.5 GiB, 59.6 GiB and 7.5 GiB; they are
    # refused before any product or weight
    error = _refused_under_a_3_gib_cap(argv)
    assert error.endswith(f"of rank {rank} exceeds {fusionrings.MAX_RULE_CELLS} cells, "
                          "the size limit for rule tables and hypergroups")


@pytest.mark.parametrize("kind, order", [
    ("ty-center", 19), ("ty-center", 201), ("mp", 2047), ("pointed", 2047),
])
def test_oversized_modular_data_is_refused_before_it_is_built(kind, order):
    # each builder checks the cells of its rank and conductor before it
    # makes an entry or a field at that conductor
    error = _refused_under_a_3_gib_cap(("md", kind, "--group", str(order)))
    assert error.endswith(f"exceed {modcheck.MAX_CELLS} cells, the size limit for modular data")


@pytest.mark.parametrize("which", ["lr-principal", "lr-dual"])
def test_oversized_graphs_are_refused_before_a_vertex_is_named(which):
    # 2047 * 2048 edges: lr-principal used to write 290 MB of JSON in 41.6 s
    error = _refused_under_a_3_gib_cap(("graph", which, "--group", "2047"))
    assert error == (f"|A| = 2047 gives 4192256 edges, which exceed {graphs.MAX_GRAPH_EDGES}, "
                     "the size limit for graphs")


def test_custom_gram_file(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[2, -1], [-1, 2]]}))
    code, out, _ = run_cli(capsys, "disc", "--lattice", str(gram))
    assert code == 0
    assert json.loads(out)["group"] == [3]


def test_gram_file_with_a_float_entry_is_a_domain_error(tmp_path, capsys):
    # int(2.9) would make this A2, whose form was printed with exit 0
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[2.9, -1], [-1, 2]]}))
    code, out, err = run_cli(capsys, "disc", "--lattice", str(gram))
    assert code == 1
    assert "list of lists of integers" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_equiv_of_ty_z7(tmp_path, capsys):
    # rank 49: the equivalence search is bounded by placements, not by rank
    _, out, _ = run_cli(capsys, "md", "ty-center", "--group", "7")
    p = tmp_path / "z.json"
    p.write_text(out)
    code, out, _ = run_cli(capsys, "equiv", "--a", str(p), "--b", str(p))
    assert code == 0
    assert len(json.loads(out)["witness"]["mapping"]) == 49


@pytest.mark.parametrize(
    "group, classes", [("3,3,3,3", 2), ("5,5,5", 2), ("3,9,9", 4)]
)
def test_classify_beyond_the_automorphism_search(capsys, group, classes):
    code, out, _ = run_cli(capsys, "classify", "--group", group)
    assert code == 0
    payload = json.loads(out)
    assert payload["metric_classes"] == classes
    assert payload["mp_classes"] == 2 * classes
    g = FinAbGroup.of([int(d) for d in group.split(",")])
    types = sorted({p**e for d in g.invariant_factors for p, e in factorize(d).items()})
    reps = [
        standard_qform(g, {t for i, t in enumerate(types) if mask >> i & 1})
        for mask in range(classes)
    ]
    assert payload["qforms"] == [[cli._rat(v.exponent) for v in q.values] for q in reps]


# SHA-256 of stdout before roots of unity, forms and bicharacters moved to
# integer exponents, and (the last three) before lattice inner products moved
# from a Fraction inverse to the integer adjugate (Python 3.11, numpy 2.4: the
# float_view digits of the md commands come from the platform's libm)
GOLDEN_STDOUT = {
    ("classify", "--group", "3,15"):
        "2df84c5c75980dd3c45d02d4b2b4c4f20e680e8ec1bdd513ae279dcf17c577ff",
    ("classify", "--group", "45"):
        "b5111d25cb81fce322fd55b019d14bb6ce25de36143b2e02555f4ac334ae57b1",
    ("md", "pointed", "--group", "15"):
        "9e1bcee829fee88ead0a4c7d0d9e0928255af3ac28dd5a41bd04693dfe72432e",
    ("md", "mp", "--group", "9", "--sign", "-"):
        "c6bf3a9944f0bf36bd08482901845a0e56ea40b962af55a7748d5a8cda33304b",
    ("md", "ty-center", "--group", "5"):
        "1473f0675c631de696955e24c0ccdbb13208ecfd7836ab1da86959be11d292c3",
    # the two builds that repeat S entries the most among the quick ones
    ("md", "ty-center", "--group", "9"):
        "b2b59308e8268500abf556812224f08e8daf80a6f1bf92470671a7f78d5f9715",
    ("md", "pointed", "--group", "45"):
        "047c3ee22495bdaf94646b7f3812ad188499b72797d308f50cfae9fa3c72352a",
    # the larger doubles, which the product of the proven factors makes cheap
    ("md", "ty-center", "--group", "11"):
        "525db64c26622b40bf6d9fe4e08264a700be18873ce28c99d7e0e650df991cee",
    ("md", "ty-center", "--group", "13"):
        "ae4cd6d1f0f7511fd2f782b76b8541369aa1db72f5bc1f88aa8f01e58f5841f7",
    ("disc", "--lattice", "A4+A4"):
        "796ec28c0067124856777fdd96fc75fd1a49142b0ecd1803fc2a52dc55923b0e",
    ("disc", "--lattice", "E7"):
        "b460ec124feac06a6a3ddf54b4c32ff7dc41656bc794bba5a8f4acdcfd2a4367",
    ("disc", "--lattice", "A24"):
        "74d357016df3d672ced6854a745b521c58e646baa817058d1f1b50a9733bbf43",
    ("glue", "--lattice", "A2+E6", "--isotropic", "0,1"):
        "bab889d9a9a29615ffcb9584a3604b06f762983400b28d1af5fa4a161ba7c156",
    # commands that import the modular-data stack on demand
    ("glue", "--lattice", "A8", "--isotropic", "3"):
        "612b1d9e6d6faf1f21cfcf8a0c983788ca1ca9c34adfce3a5ea1b9e89270d860",
    ("graph", "lr-principal", "--group", "5"):
        "1b8f682977c61f63217d4c150214efde0d10d3c7eea28e6d1cd4a01d06c5e46a",
    ("hypergroup", "--group", "5", "--table"):
        "4f3d86170fb36408ddfdc269999ef03b42a08b4444a2ffa89354975578e52dce",
    # pinned while groups and quadforms ran on numpy tables, before the
    # backtracking automorphism search and the generator-table proofs:
    # disc's least table depends on the automorphism order, glue's output
    # on the lifts it chose
    ("disc", "--lattice", "A12+A12"):
        "31b6d2d54918be494cc088e4ea4facdf6fef3f56d6ae5105ff5ddda4dc521386",
    ("disc", "--lattice", "A2+A2+A2"):
        "9c3aa5b6f27f13147c6777b1638f4cc78643ad94f1d290f393472e807bc010a5",
    ("glue", "--lattice", "A4+A4", "--isotropic", "0,1"):
        "9426f4fb1b9f70391876fb544c88298042bd0c3f9445ccb71d05c009ab54845f",
    ("classify", "--group", "2047"):
        "8575519649672642d4852049d763816926db3a6f87190ac3b152cc4a0252e501",
    # re-pinned when fp_dims became the float view of the exact dimensions:
    # only fp_dims digits changed, the ring and global_dim did not
    ("fusion", "--rules", "genmp", "--group", "9"):
        "57e41d903c6fbbcdb82ee560a04d416ad02e9dda63add3676b49fe7ba95ce958",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# SHA-256 of `fusion --from-md` on the output of each build, re-pinned when
# fp_dims became the float view of the proven dimensions S_i0 / S_00: the
# ring and global_dim are those printed while the Verlinde tensor was still
# guessed from S in float; the fp_dims digits come from complex() of each
# exact dimension, so from the platform's libm
GOLDEN_FUSION_FROM_MD = {
    ("md", "ty-center", "--group", "9"):
        "7f6f9ec07d01f79f5624467784e6669ce9740dc8a7de16c5146e83eb775ec46f",
    ("md", "mp", "--group", "15", "--sign", "-"):
        "b266c79e4d9e3110310fee9241be3d615c86c1dc7dddfe353cb8c3481676e3ba",
}


@pytest.mark.parametrize("build", list(GOLDEN_FUSION_FROM_MD), ids=" ".join)
def test_fusion_from_md_stdout_is_byte_identical(tmp_path, capsys, build):
    code, out, _ = run_cli(capsys, *build)
    assert code == 0
    path = tmp_path / "md.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_FUSION_FROM_MD[build]


def _eigen_refused(*args, **kwargs):
    raise AssertionError("an eigenvalue problem")


def test_fusion_solves_no_eigenvalue_problem(tmp_path, capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "md", "ty-center", "--group", "5")
    path = tmp_path / "md.json"
    path.write_text(out)
    monkeypatch.setattr(np.linalg, "eigvals", _eigen_refused)
    monkeypatch.setattr(np.linalg, "eig", _eigen_refused)
    for argv in (("--from-md", str(path)), ("--rules", "ty", "--group", "5"),
                 ("--rules", "genty", "--group", "5"), ("--rules", "genmp", "--group", "9")):
        code, out, _ = run_cli(capsys, "fusion", *argv)
        assert code == 0 and json.loads(out)["check"]["ok"] is True, argv


def test_every_invertible_of_ty_z5_prints_exactly_one(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "md", "ty-center", "--group", "5")
    path = tmp_path / "md.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "fusion", "--from-md", str(path))
    payload = json.loads(out)
    ring = {}  # (i, j) -> {k: N_ij^k}
    for i, j, k, n in payload["ring"]["nonzero"]:
        ring.setdefault((i, j), {})[k] = n
    fp_dims = payload["check"]["fp_dims"]
    # x is invertible iff x x* = 1, x* being the label j with N_xj^0 != 0
    invertible = [x for x in range(len(fp_dims))
                  if any(ring[x, j] == {0: 1} for j in range(len(fp_dims)) if (x, j) in ring)]
    assert code == 0 and len(invertible) == 10
    assert [fp_dims[x] for x in invertible] == [1.0] * 10


def test_closed_stdout_ends_without_a_traceback():
    # the reader goes away after 10 bytes of a 269 kB document
    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tycat", "md", "ty-center", "--group", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.read(10).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
