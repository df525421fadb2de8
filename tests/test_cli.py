import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from gw24 import __version__, schubert
from gw24.cache import save_store
from gw24.cli import main
from gw24.engine import Engine, InvariantStore, MissingValueError
from gw24.keys import SeedSet

ROOT = Path(__file__).resolve().parent.parent


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


# Seed-table defects as (id, entry, value, message).  The first breaks the
# associativity cross-check of the seeds; SeedSet rejects the others.
SEED_DEFECTS = [
    ("", (1, 0, 2, 0), 2, "seed table fails the associativity cross-check"),
    ("asymmetric", (0, 2, 0, 1), 1, "seed set inconsistent under symmetry"),
    ("dimension", (1, 0, 0, 0), 1, "violates the dimension condition"),
    ("negative", (6, -1, 0, 0), 0, "has a negative entry"),
]


def with_seed_defects(cases):
    """Each (id, args) case once per seed defect; with the first defect a
    case keeps its own id."""
    return [
        pytest.param(*args, entry, value, message,
                     id="-".join(filter(None, (case_id, defect_id))))
        for case_id, args in cases
        for defect_id, entry, value, message in SEED_DEFECTS
    ]


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


def test_invariant_degree0_note_names_the_degree(capsys):
    # 1 = 4*0 + 1, so the weight condition holds; the key is invalid only
    # because the table starts at degree 1, and the note says so
    code, out, err = run(capsys, "invariant", "1", "0", "0", "0", "0")
    assert (code, out) == (0, "0\n")
    assert err == ("note: dimension-invalid key (degree < 1: degree-0 counts "
                   "are classical, not in the table); value is 0 by "
                   "convention\n")
    code, _out, err = run(capsys, "invariant", "1", "0", "0", "0", "1")
    assert "(alpha+beta+2*gamma+3*delta != 4*degree+1)" in err


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


@pytest.mark.parametrize("argv, message", [
    (("table", "--max-degree", "0"), "--max-degree must be >= 1"),
    (("cache", "export", "--max-degree", "0", "--cache-path", "x.gw24"),
     "--max-degree must be >= 1"),
    (("verify", "--max-degree", "-1"), "--max-degree must be >= 0"),
    (("verify", "--workers", "0"), "--workers must be >= 1"),
], ids=["table", "cache-export", "verify-max-degree", "verify-workers"])
def test_out_of_range_options_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


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


def test_verify_json_same_with_and_without_exhaustive(capsys, cache3):
    _code, default, _err = run(capsys, "verify", "--format", "json",
                               "--cache-path", cache3)
    code, exhaustive, _err = run(capsys, "verify", "--format", "json",
                                 "--exhaustive", "--cache-path", cache3)
    assert code == 0
    assert default == exhaustive
    checks = {c["check"]: c for c in json.loads(default)["checks"]}
    assert checks["wdvv-relations"]["equations_checked"] == 1981


@pytest.mark.parametrize("max_degree, entry, value, message",
                         with_seed_defects([("0", ("0",)), ("1", ("1",))]))
def test_verify_reports_failing_seed_table(capsys, monkeypatch, cache3,
                                          max_degree, entry, value, message):
    # every engine is built from the seeds, so the engine checks are skipped
    monkeypatch.setitem(schubert._SEED_TABLE, entry, value)
    code, out, _err = run(capsys, "verify", "--max-degree", max_degree,
                          "--cache-path", cache3)
    assert code == 2
    assert "classical-ring-vs-oracle: ok" in out
    assert "seed-cross-checks: FAIL" in out
    assert message in out
    assert "wdvv-relations: skipped (the seed cross-checks failed)" in out
    assert "golden-table: skipped (the seed cross-checks failed)" in out
    code, out, _err = run(capsys, "verify", "--max-degree", max_degree,
                          "--format", "json", "--cache-path", cache3)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    checks = {c["check"]: c for c in payload["checks"]}
    assert checks["classical-ring-vs-oracle"]["ok"] is True
    assert checks["seed-cross-checks"]["ok"] is False
    assert message in checks["seed-cross-checks"]["failures"][0]
    for name in ("wdvv-relations", "golden-table"):
        assert checks[name] == {
            "check": name, "ok": False, "failures": [],
            "skipped": "the seed cross-checks failed",
        }


@pytest.mark.parametrize("argv, entry, value, message", with_seed_defects([
    (f"argv{i}", (argv,)) for i, argv in enumerate([
        ("table", "--max-degree", "1"),
        ("invariant", "5", "0", "0", "0", "1"),
        ("cache", "export", "--max-degree", "1", "--cache-path",
         "{tmp}/x.gw24"),
        ("cache", "import", "--cache-path", "{cache3}"),
    ])
]))
def test_failing_seed_table_is_an_inconsistency(capsys, monkeypatch, cache3,
                                                tmp_path, argv, entry, value,
                                                message):
    monkeypatch.setitem(schubert._SEED_TABLE, entry, value)
    argv = [a.format(tmp=tmp_path, cache3=cache3) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("inconsistency: seed")
    assert message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_underdetermined_system_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "gw24.cli.Engine",
        lambda: Engine(seed_set=SeedSet(entries={}, provenance_note="empty")),
    )
    code, out, err = run(capsys, "invariant", "5", "0", "0", "0", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("underdetermined: degree 1: underdetermined system")


def test_other_engine_error_is_an_inconsistency(capsys, monkeypatch):
    # an engine failure other than an underdetermined system, here a
    # missing lower degree, exits 2 like a violated relation
    def missing(self, degree):
        raise MissingValueError("degree 1 has not been solved")

    monkeypatch.setattr(Engine, "solve_up_to", missing)
    code, out, err = run(capsys, "invariant", "5", "0", "0", "0", "1")
    assert code == 2
    assert out == ""
    assert err == "inconsistency: degree 1 has not been solved\n"


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # every ValueError that user input can cause is raised as a UsageError
    # before the engine runs, so any other is a fault, not the user's
    def broken(self, degree):
        raise ValueError("zip() argument 2 is shorter than argument 1")

    monkeypatch.setattr(Engine, "solve_up_to", broken)
    with pytest.raises(ValueError, match="zip"):
        main(["invariant", "5", "0", "0", "0", "1"])
    assert capsys.readouterr().err == ""


def _src_env():
    """The environment with this checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a pool imports it: multiprocessing.pool adds 1.6 MiB of peak
    # RSS (20.0 -> 21.6 MiB after gw24.cli, Python 3.11.7)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gw24.cli; "
         "sys.exit('multiprocessing' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_verify_reports_violated_relations_and_golden_mismatch(
        capsys, monkeypatch):
    # a d<=3 store with N(9,0,0,0;2) = 3 instead of 2
    solved = Engine()
    solved.solve_up_to(3)
    store = InvariantStore()
    for d in (1, 2, 3):
        table = solved.store.canonical_table(d)
        if d == 2:
            table[(9, 0, 0, 0)] = 3
        store.commit_degree(d, table)
    bad = Engine()
    bad.store = store
    monkeypatch.setattr("gw24.cli.Engine", lambda: bad)

    code, out, _err = run(capsys, "verify", "--max-degree", "3")
    assert code == 2
    lines = out.splitlines()
    assert lines[:4] == [
        "classical-ring-vs-oracle: ok",
        "seed-cross-checks: ok",
        "wdvv-relations: FAIL (equations checked: 1981)",
        '  {"degree": 2, "monomial": [6, 0, 0, 0], '
        '"quadruple": [1, 1, 2, 2], "residual": "1"}',
    ]
    assert lines[-2:] == [
        "golden-table: FAIL (golden rows matched: 2)",
        "  degree 2: computed 3, reference 2",
    ]
    assert len(lines) == 3 + 116 + 2

    _code, default, _err = run(capsys, "verify", "--max-degree", "3",
                               "--format", "json")
    code, exhaustive, _err = run(capsys, "verify", "--max-degree", "3",
                                 "--format", "json", "--exhaustive")
    assert code == 2
    assert default == exhaustive
    payload = json.loads(default)
    assert payload["ok"] is False
    checks = {c["check"]: c for c in payload["checks"]}
    failures = checks["wdvv-relations"]["failures"]
    assert Counter(f["degree"] for f in failures) == {2: 2, 3: 114}
    assert checks["golden-table"] == {
        "check": "golden-table", "ok": False, "matched_rows": 2,
        "failures": ["degree 2: computed 3, reference 2"],
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


def test_cache_import_rejects_a_redigested_wrong_value(capsys, tmp_path):
    # N(0,0,1,5;4) = 6 written as 7, with the row digest recomputed: the
    # row sample would miss it, so import loads without it and runs the
    # random-point check, which does not
    path = tmp_path / "d6.gw24"
    run(capsys, "cache", "export", "--cache-path", str(path),
        "--max-degree", "6")
    lines = path.read_text().splitlines()
    header, rows = json.loads(lines[0]), lines[1:]
    rows[rows.index("0 0 1 5 4 6")] = "0 0 1 5 4 7"
    header["content_digest"] = hashlib.sha256(
        "\n".join(rows).encode()).hexdigest()
    path.write_text(json.dumps(header, sort_keys=True) + "\n"
                    + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "cache", "import", "--cache-path", str(path))
    assert (code, out) == (2, "")
    assert err == ("inconsistency: cache rows violate the associativity "
                   "relations at a random point at degrees 4, 5, 6\n")


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


def test_cache_write_to_missing_directory_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.gw24")
    for argv in (
        ("cache", "export", "--cache-path", path, "--max-degree", "1"),
        ("table", "--max-degree", "1", "--cache-path", path),
        ("invariant", "5", "0", "0", "0", "1", "--cache-path", path),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("usage error: cannot write cache file"), argv
        assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


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


@pytest.fixture(scope="module")
def raised6_text(tmp_path_factory):
    """A d<=6 cache with N(11,4,5,0;6) raised by 1 and its row digest
    recomputed: the load's row sample misses it, the point check does not."""
    eng = Engine()
    eng.solve_up_to(6)
    path = tmp_path_factory.mktemp("cache") / "d6.gw24"
    save_store(eng.store, str(path), eng.seed_set, __version__)
    header, *rows = path.read_text().splitlines()
    rows[rows.index("11 4 5 0 6 2831442851260")] = "11 4 5 0 6 2831442851261"
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return (json.dumps(dict(json.loads(header), content_digest=digest),
                       sort_keys=True) + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def raised6(tmp_path, raised6_text):
    path = tmp_path / "raised6.gw24"
    path.write_text(raised6_text)
    return path


@pytest.mark.parametrize("argv", [
    ("table", "--max-degree", "7"),
    ("invariant", "29", "0", "0", "0", "7"),
], ids=["table", "invariant"])
def test_extending_a_cache_point_checks_the_loaded_degrees(capsys, raised6,
                                                          argv):
    # the check runs before any value is read, solved or written
    before = raised6.read_bytes()
    code, out, err = run(capsys, *argv, "--cache-path", str(raised6))
    assert (code, out) == (2, "")
    assert err == ("inconsistency: cache rows violate the associativity "
                   "relations at a random point at degrees 6\n")
    assert raised6.read_bytes() == before


def test_verify_never_writes_the_cache(capsys, raised6):
    # a solve past the loaded degrees stays in memory, in both modes
    before = raised6.read_bytes()
    reports = []
    for mode in ((), ("--exhaustive",)):
        code, out, _err = run(capsys, "verify", "--max-degree", "7", *mode,
                              "--cache-path", str(raised6))
        assert code == 2
        reports.append(out)
        assert raised6.read_bytes() == before
    assert reports[0] == reports[1]
    lines = reports[0].splitlines()
    assert lines[2:4] == [
        "wdvv-relations: FAIL (equations checked: 58222)",
        '  {"degree": 6, "monomial": [1, 11, 5, 0], '
        '"quadruple": [1, 1, 2, 2], "residual": "1"}',
    ]
    assert lines[-1] == "golden-table: ok (golden rows matched: 7)"


@pytest.mark.parametrize("argv, expected", [
    (("table", "--max-degree", "4", "--cache-path", "{cache4}"), 0),
    (("cache", "import", "--cache-path", "{cache4}"), 0),
    (("invariant", "13", "0", "0", "0", "3"), 0),
    (("cache", "export", "--max-degree", "3", "--cache-path", "{fresh}"), 0),
    (("verify", "--max-degree", "7", "--exhaustive",
      "--cache-path", "{raised6}"), 2),
], ids=["table", "cache-import", "invariant", "cache-export", "verify"])
def test_every_command_on_a_closed_stdout_exits_with_its_verdict(
        capsys, tmp_path, cache4, raised6, argv, expected):
    # a reader that closed the pipe (as `| head -3` does) cuts the output
    # short: no traceback, and the exit code is still the verdict
    fresh = tmp_path / "fresh.gw24"
    argv = [a.format(cache4=cache4, raised6=raised6, fresh=fresh)
            for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gw24.cli", *argv],
            env=_src_env(), stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (expected, "")
    if argv[:2] == ["cache", "export"]:
        # the file was written before the output: it is whole
        code, out, _err = run(capsys, "cache", "import",
                              "--cache-path", str(fresh))
        assert (code, out) == (0, "cache accepted: degrees 1..3, 104 rows\n")


@pytest.mark.parametrize("argv", [
    ("table",),
    ("invariant", "13", "0", "0", "0", "3"),
    ("verify",),
    ("cache", "export"),
    ("cache", "import"),
], ids=["table", "invariant", "verify", "cache-export", "cache-import"])
def test_an_empty_cache_path_is_a_usage_error(capsys, monkeypatch, argv):
    # rejected right after parsing: no engine built, no seed read
    def unexpected(*args, **kwargs):
        raise AssertionError("engine or seeds built")

    monkeypatch.setattr("gw24.cli.Engine", unexpected)
    monkeypatch.setattr("gw24.cli.seed_invariants", unexpected)
    code, out, err = run(capsys, *argv, "--cache-path", "")
    assert (code, out) == (1, "")
    assert err == "usage error: --cache-path must not be empty\n"


@pytest.fixture(scope="module")
def cache4(tmp_path_factory):
    eng = Engine()
    eng.solve_up_to(4)
    path = tmp_path_factory.mktemp("cache") / "d4.gw24"
    save_store(eng.store, str(path), eng.seed_set, __version__)
    return path


def test_reads_inside_the_loaded_degrees_run_no_point_check(capsys,
                                                            monkeypatch,
                                                            cache4):
    def unexpected(tables, max_degree):
        raise AssertionError("point check run")

    monkeypatch.setattr("gw24.cli.degrees_failing_at_a_point", unexpected)
    before = cache4.read_bytes()
    for argv in (("table", "--max-degree", "3"),
                 ("invariant", "13", "0", "0", "0", "3")):
        code, _out, _err = run(capsys, *argv, "--cache-path", str(cache4))
        assert code == 0, argv
    assert cache4.read_bytes() == before


def test_a_dimension_invalid_key_writes_no_cache(capsys, tmp_path):
    path = tmp_path / "new.gw24"
    code, out, _err = run(capsys, "invariant", "1", "0", "0", "0", "2",
                          "--cache-path", str(path))
    assert (code, out) == (0, "0\n")
    assert not path.exists()
