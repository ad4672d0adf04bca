import contextlib
import hashlib
import csv
import io
import json

import pytest

from exactfem.cli import SEED_ENV_VAR, main


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_indices_text():
    code, out = run_cli(
        "indices", "--dim", "2", "--degree", "3", "--set", "A", "--order", "grsymlex"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "cardinal=10" in lines[0]
    assert lines[1:] == [
        "(0, 0)", "(1, 0)", "(0, 1)", "(2, 0)", "(1, 1)",
        "(0, 2)", "(3, 0)", "(2, 1)", "(1, 2)", "(0, 3)",
    ]


def test_indices_exact_sum_grevlex():
    code, out = run_cli(
        "indices", "--dim", "3", "--degree", "3", "--set", "C",
        "--order", "grevlex", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["indices"] == [
        [0, 0, 3], [0, 1, 2], [1, 0, 2], [0, 2, 1], [1, 1, 1],
        [2, 0, 1], [0, 3, 0], [1, 2, 0], [2, 1, 0], [3, 0, 0],
    ]
    assert data["cardinal"] == 10


def test_indices_zero_at_usage_error():
    code, _ = run_cli(
        "indices", "--dim", "2", "--degree", "2", "--set", "Azero", "--zero-index", "0"
    )
    assert code == 2
    code, _ = run_cli("indices", "--dim", "2", "--degree", "2", "--zero-index", "1")
    assert code == 2


def test_indices_csv():
    code, out = run_cli(
        "indices", "--dim", "2", "--degree", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["alpha_1", "alpha_2"], ["0", "0"], ["1", "0"], ["0", "1"]]


def test_nodes_reference():
    code, out = run_cli("nodes", "--dim", "2", "--degree", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha_1", "alpha_2", "x_1", "x_2"]
    table = {tuple(r[:2]): tuple(r[2:]) for r in rows[1:]}
    assert table[("2", "1")] == ("2/3", "1/3")
    assert len(rows) == 11


def test_nodes_from_vertex_file(tmp_path):
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps({"d": 1, "vertices": [["2"], ["6"]]}))
    code, out = run_cli(
        "nodes", "--dim", "1", "--degree", "0", "--vertices", str(vfile),
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == [{"alpha": [0], "point": ["4"]}]


def test_nodes_bad_file(tmp_path):
    vfile = tmp_path / "broken.json"
    vfile.write_text("{not json")
    code, _ = run_cli("nodes", "--dim", "1", "--degree", "1", "--vertices", str(vfile))
    assert code == 2
    vfile.write_text(json.dumps({"d": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}))
    code, _ = run_cli("nodes", "--dim", "1", "--degree", "1", "--vertices", str(vfile))
    assert code == 2


def test_shape_reference_line():
    code, out = run_cli("shape", "--dim", "1", "--degree", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["shape_functions"] == [
        {"dim": 1, "terms": [{"exp": [0], "coeff": "1"}, {"exp": [1], "coeff": "-1"}]},
        {"dim": 1, "terms": [{"exp": [1], "coeff": "1"}]},
    ]


def test_shape_reference_triangle_is_barycentric():
    code, out = run_cli("shape", "--dim", "2", "--degree", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["shape_functions"] == [
        {
            "dim": 2,
            "terms": [
                {"exp": [0, 0], "coeff": "1"},
                {"exp": [1, 0], "coeff": "-1"},
                {"exp": [0, 1], "coeff": "-1"},
            ],
        },
        {"dim": 2, "terms": [{"exp": [1, 0], "coeff": "1"}]},
        {"dim": 2, "terms": [{"exp": [0, 1], "coeff": "1"}]},
    ]


def test_shape_degenerate_exit_code(tmp_path):
    vfile = tmp_path / "line.json"
    vfile.write_text(
        json.dumps({"d": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]})
    )
    code, _ = run_cli("shape", "--dim", "2", "--degree", "1", "--vertices", str(vfile))
    assert code == 3


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_nodes_degenerate_exit_code(tmp_path, capsys, fmt):
    # (0, 1) and (2, 0) would both land on (1, 1): refuse the family instead
    vfile = tmp_path / "line.json"
    vfile.write_text(
        json.dumps({"d": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]})
    )
    code, out = run_cli(
        "nodes", "--dim", "2", "--degree", "2", "--vertices", str(vfile), "--format", fmt
    )
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_small_run():
    code, out = run_cli(
        "verify", "--dmax", "2", "--kmax", "3", "--seed", "7",
        "--lemma", "1605", "--lemma", "1626", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["totals"]["failed"] == 0
    assert {c["id"] for c in data["checks"]} == {"1605", "1626"}
    assert all(c["status"] == "pass" for c in data["checks"])


def test_verify_unknown_id():
    code, _ = run_cli("verify", "--lemma", "9999")
    assert code == 2


def test_verify_seed_env_var(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "12")
    code, out_env = run_cli("verify", "--dmax", "1", "--kmax", "1", "--samples", "1",
                            "--lemma", "1590", "--format", "json")
    assert code == 0
    assert json.loads(out_env)["seed"] == 12
    # explicit flag wins over the environment
    code, out_flag = run_cli("verify", "--dmax", "1", "--kmax", "1", "--samples", "1",
                             "--seed", "3", "--lemma", "1590", "--format", "json")
    assert json.loads(out_flag)["seed"] == 3


def test_orders_table():
    code, out = run_cli("orders", "--dim", "3", "--degree", "3")
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines() if line and not line.startswith(("#", " "))}
    assert "yes via front" in rows["grsymlex"]
    assert "yes via back" in rows["grevlex"]
    assert "NO" in rows["grlex"]
    assert "NO" in rows["grcolex"]
    # documented witness appears for the failing embedding
    assert "(1, 2, 0)" in out or "(2, 0, 1)" in out


def test_orders_json():
    code, out = run_cli("orders", "--dim", "2", "--degree", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    by_order = {row["order"]: row for row in data["orders"]}
    assert by_order["grevlex"]["vertex_numbering"] is False
    assert by_order["grsymlex"]["vertex_numbering"] is True
    assert by_order["grlex"]["vertex_numbering"] is False


def test_orders_dimension_one():
    code, out = run_cli("orders", "--dim", "1", "--degree", "2")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["grlex", "grcolex", "grsymlex", "grevlex"]
    assert all(row[1:] == ["yes", "yes", "yes"] for row in rows)
    code, out = run_cli("orders", "--dim", "1", "--degree", "2", "--format", "json")
    assert code == 0
    for row in json.loads(out)["orders"]:
        assert row["dimension_embedding"] is True
        assert row["embedding_route"] is None
        assert row["embedding_witness"] is None


def test_usage_error_exit_code():
    code, _ = run_cli("indices", "--dim", "2")
    assert code == 2
    code, _ = run_cli("nonsense")
    assert code == 2


# Simplices with mixed and negative denominators, one per pinned dimension.
_MIXED_VERTICES = {
    2: [["1/2", "-1/3"], ["3", "1/4"], ["-2/5", "7/6"]],
    3: [["0", "1/2", "-1/3"], ["2", "0", "1/4"], ["-1/5", "3", "0"], ["1/7", "-1/2", "5/3"]],
    4: [
        ["1/2", "0", "0", "-1/3"],
        ["3", "1/4", "0", "0"],
        ["0", "-2/5", "2", "0"],
        ["0", "0", "7/6", "1"],
        ["1", "1", "1", "3/2"],
    ],
}

# SHA-256 of `exactfem shape --format json` stdout; the reports print every
# coefficient of every shape function in canonical form, so they pin the
# products term by term, not only their values.
_SHAPE_JSON_SHA256 = {
    (2, 6, "reference"): "c25046be688aa011c87cce66ea0c398b968d513775c51620fd435319415877ac",
    (2, 6, "mixed"): "57cc69e52da72a231cf0d2167a9075140654abb7d4807afd149ac7c4a6dbdbcd",
    (3, 4, "reference"): "23dda9b80fa6b12345229ffdf1b7b75d32bd6590089001b5c08f2429902d28fd",
    (3, 4, "mixed"): "b4fe9b63677d892d01a977a7fcadb6ddec4a7c7f9f223bad556ef6b85ab76de4",
    (4, 3, "reference"): "8019057233cfedb204c4f0732aea0a5623cae3d00cc74cfd7dc3422538dfb1e0",
    (4, 3, "mixed"): "784ecbdf0882147d7f0684322a47f2b4b96a09074d82c2c9f13fadb963119c41",
}


@pytest.mark.parametrize("d, k, simplex", sorted(_SHAPE_JSON_SHA256))
def test_shape_json_digest(tmp_path, d, k, simplex):
    argv = ["shape", "--dim", str(d), "--degree", str(k), "--format", "json"]
    if simplex == "mixed":
        vfile = tmp_path / "mixed.json"
        vfile.write_text(json.dumps({"d": d, "vertices": _MIXED_VERTICES[d]}))
        argv += ["--vertices", str(vfile)]
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SHAPE_JSON_SHA256[(d, k, simplex)]
