import json

import pytest

from gw24 import __version__
from gw24.cache import save_store
from gw24.cli import main
from gw24.engine import Engine


@pytest.fixture(scope="module")
def cache3(tmp_path_factory):
    eng = Engine()
    eng.solve_up_to(3)
    path = tmp_path_factory.mktemp("cache") / "d3.gw24"
    save_store(eng.store, str(path), eng.seed_set, __version__)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_plain(capsys, cache3):
    code, out, _err = run(capsys, "invariant", "13", "0", "0", "0", "3",
                          "--cache-path", cache3)
    assert code == 0
    assert out.strip() == "504"


def test_invariant_symmetry(capsys, cache3):
    code, out, _err = run(capsys, "invariant", "0", "13", "0", "0", "3",
                          "--cache-path", cache3)
    assert code == 0
    assert out.strip() == "504"


def test_invariant_dimension_invalid_note(capsys):
    code, out, err = run(capsys, "invariant", "1", "0", "0", "0", "1")
    assert code == 0
    assert out.strip() == "0"
    assert "dimension-invalid" in err


def test_invariant_json(capsys, cache3):
    code, out, _err = run(capsys, "invariant", "9", "0", "0", "0", "2",
                          "--format", "json", "--cache-path", cache3)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2"
    assert payload["dimension_valid"] is True


def test_invariant_negative_args_usage_error(capsys):
    code, _out, err = run(capsys, "invariant", "-1", "0", "0", "0", "1")
    assert code == 1
    assert "usage error" in err


def test_table_markdown(capsys, cache3):
    code, out, _err = run(capsys, "table", "--max-degree", "3",
                          "--cache-path", cache3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| d | Q_d | 4d+1 |")
    assert "| 1 | 0 | 5 |" in lines[2]
    assert "| 2 | 2 | 9 |" in lines[3]
    assert "| 3 | 504 | 13 |" in lines[4]
    assert "twice the number of quadrics" in lines[3]


def test_table_with_nd_csv(capsys, cache3):
    code, out, _err = run(capsys, "table", "--max-degree", "3",
                          "--format", "csv", "--with-nd",
                          "--cache-path", cache3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,q_d,n_points,n_d,note"
    assert lines[3].startswith("3,504,13,13608,")


def test_table_json_round_trips_exact_decimals(capsys, cache3):
    code, out, _err = run(capsys, "table", "--max-degree", "3",
                          "--format", "json", "--with-nd",
                          "--cache-path", cache3)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [int(r["q_d"]) for r in rows] == [0, 2, 504]
    assert int(rows[2]["n_d"]) == 13608
    assert rows[1]["caveat"] is True


def test_table_single_row(capsys, cache3):
    code, out, _err = run(capsys, "table", "--max-degree", "1",
                          "--cache-path", cache3)
    assert code == 0
    body = [line for line in out.splitlines() if line.startswith("| 1")]
    assert body == ["| 1 | 0 | 5 |  |"]


def test_table_degree_gate(capsys):
    code, _out, err = run(capsys, "table", "--max-degree", "10")
    assert code == 1
    assert "allow-high-degree" in err


def test_table_deterministic_output(capsys, cache3):
    _code, out1, _ = run(capsys, "table", "--max-degree", "3",
                         "--cache-path", cache3)
    _code, out2, _ = run(capsys, "table", "--max-degree", "3",
                         "--cache-path", cache3)
    assert out1 == out2


def test_verify_ok(capsys, cache3):
    code, out, _err = run(capsys, "verify", "--max-degree", "3",
                          "--exhaustive", "--workers", "2",
                          "--cache-path", cache3)
    assert code == 0
    assert "classical-ring-vs-oracle: ok" in out
    assert "seed-cross-checks: ok" in out
    assert "wdvv-relations: ok" in out
    assert "golden rows matched: 3" in out


def test_verify_degree_zero_classical_only(capsys):
    code, out, _err = run(capsys, "verify", "--max-degree", "0")
    assert code == 0
    assert "equations checked: 0" in out


def test_verify_json_format(capsys, cache3):
    code, out, _err = run(capsys, "verify", "--max-degree", "2",
                          "--format", "json", "--cache-path", cache3)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {c["check"] for c in payload["checks"]} == {
        "classical-ring-vs-oracle", "seed-cross-checks",
        "wdvv-relations", "golden-table",
    }


def test_verify_corrupted_cache_exits_2(capsys, cache3, tmp_path):
    corrupted = tmp_path / "bad.gw24"
    text = open(cache3).read().replace(" 3 504", " 3 505")
    corrupted.write_text(text)
    code, _out, err = run(capsys, "verify", "--max-degree", "3",
                          "--cache-path", str(corrupted))
    assert code == 2
    assert "inconsistency" in err


def test_cache_export_import(capsys, tmp_path):
    path = tmp_path / "exported.gw24"
    code, out, _err = run(capsys, "cache", "export", "--cache-path",
                          str(path), "--max-degree", "2")
    assert code == 0
    assert "exported degrees 1..2" in out
    code, out, _err = run(capsys, "cache", "import", "--cache-path", str(path))
    assert code == 0
    assert "cache accepted: degrees 1..2" in out


def test_cache_import_tampered_exits_2(capsys, cache3, tmp_path):
    bad = tmp_path / "tampered.gw24"
    bad.write_text(open(cache3).read().replace(" 3 504", " 3 503"))
    code, _out, err = run(capsys, "cache", "import", "--cache-path", str(bad))
    assert code == 2
    assert "digest" in err


@pytest.mark.parametrize("content", [b"[1, 2]\n", b'"x"\n', b"{}\n\xff\xfe\n"])
def test_cache_import_malformed_file_exits_2(capsys, tmp_path, content):
    # a header that is JSON but not an object, and a file that is not
    # UTF-8, are rejected caches, not usage errors or tracebacks
    bad = tmp_path / "malformed.gw24"
    bad.write_bytes(content)
    code, _out, err = run(capsys, "cache", "import", "--cache-path", str(bad))
    assert code == 2
    assert err.startswith("inconsistency: ")


def test_cache_import_unreadable_path_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing.gw24", tmp_path):
        code, _out, err = run(capsys, "cache", "import", "--cache-path",
                              str(path))
        assert code == 1
        assert err.startswith("usage error: cannot read cache file")
        assert "Traceback" not in err


def test_usage_error_unknown_command(capsys):
    code, _out, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_cache_refresh_extends_file(capsys, tmp_path):
    path = tmp_path / "grow.gw24"
    run(capsys, "cache", "export", "--cache-path", str(path),
        "--max-degree", "1")
    code, out, _err = run(capsys, "invariant", "9", "0", "0", "0", "2",
                          "--cache-path", str(path))
    assert code == 0 and out.strip() == "2"
    code, out, _err = run(capsys, "cache", "import", "--cache-path", str(path))
    assert code == 0
    assert "degrees 1..2" in out
