import ast
import hashlib
import json
import os
import random
import re
import shutil

import pytest

from gw24 import __version__
from gw24 import cache as cache_module
from gw24 import cli
from gw24 import engine as engine_module
from gw24.cache import (CacheError, _render, load_store, save_store,
                        seed_digest)
from gw24.cli import main
from gw24.engine import Engine, InvariantStore
from gw24.keys import SeedSet, canonical_keys


@pytest.fixture(scope="module")
def engine3():
    eng = Engine()
    eng.solve_up_to(3)
    return eng


def test_round_trip_bit_exact(engine3, tmp_path):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    loaded = load_store(str(path), engine3.seed_set)
    for d in (1, 2, 3):
        assert loaded.canonical_table(d) == engine3.store.canonical_table(d)
    # writing the loaded store back is byte-identical
    path2 = tmp_path / "store2.gw24"
    save_store(loaded, str(path2), engine3.seed_set, __version__)
    assert path.read_bytes() == path2.read_bytes()


def test_two_runs_identical_files(tmp_path):
    paths = []
    for name in ("a.gw24", "b.gw24"):
        eng = Engine()
        eng.solve_up_to(2)
        p = tmp_path / name
        save_store(eng.store, str(p), eng.seed_set, __version__)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tampered_row_rejected(engine3, tmp_path):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    lines = path.read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if line.endswith(" 3 504"))
    lines[idx] = lines[idx].replace(" 504", " 505")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="digest"):
        load_store(str(path), engine3.seed_set)


def _forged(engine3, tmp_path):
    """A d<=3 cache, written by the writer, with every degree-3 value 1
    too high."""
    tables = {d: dict(engine3.store.canonical_table(d)) for d in (1, 2, 3)}
    for key in tables[3]:
        tables[3][key] += 1
    store = InvariantStore()
    for d in (1, 2, 3):
        store.commit_degree(d, tables[d])
    path = tmp_path / "forged.gw24"
    save_store(store, str(path), engine3.seed_set, __version__)
    return path


def test_wrong_values_with_fixed_digest_rejected(engine3, tmp_path):
    # even a re-digested file with wrong rows fails the sample
    # re-verification against freshly assembled relations, which a load
    # runs unless asked not to
    path = _forged(engine3, tmp_path)
    with pytest.raises(
        CacheError,
        match=r"sample verification failed at degree 3, "
              r"row \(\d+, \d+, \d+, \d+\), quadruple \(",
    ):
        load_store(str(path), engine3.seed_set)


def test_verify_and_import_report_the_forged_cache_in_full(engine3,
                                                          tmp_path, capsys):
    # the loads of verify and cache import skip the row sample, and their
    # own checks reject the forged cache: verify with its whole report
    path = str(_forged(engine3, tmp_path))
    for argv in ([], ["--exhaustive"]):
        code = main(["verify", "--max-degree", "3", "--format", "json",
                     "--cache-path", path, *argv])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        assert [c["ok"] for c in checks.values()] == [True, True, False, False]
        assert len(checks["wdvv-relations"]["failures"]) == 1196
        assert checks["golden-table"]["failures"] == [
            "degree 3: computed 505, reference 504"]
    assert main(["cache", "import", "--cache-path", path]) == 2
    assert capsys.readouterr() == ("", (
        "inconsistency: cache rows violate the associativity relations at "
        "a random point at degrees 3\n"))


def test_export_rejects_a_redigested_wrong_value_and_keeps_the_file(
        tmp_path, capsys):
    # the row sample misses this value; the export's random-point check,
    # run before it solves or writes anything, does not
    eng = Engine()
    eng.solve_up_to(6)
    path = tmp_path / "store.gw24"
    header, rows = _saved(path, eng)
    rows[rows.index("0 0 1 5 4 6")] = "0 0 1 5 4 7"
    path.write_text(_redigested(header, rows))
    load_store(str(path), eng.seed_set)
    before = path.read_bytes()
    assert main(["cache", "export", "--max-degree", "7",
                 "--cache-path", str(path)]) == 2
    assert capsys.readouterr() == ("", (
        "inconsistency: cache rows violate the associativity relations at "
        "a random point at degrees 4, 5, 6\n"))
    assert path.read_bytes() == before


@pytest.fixture(scope="module")
def cache4(tmp_path_factory):
    engine = Engine()
    engine.solve_up_to(4)
    path = tmp_path_factory.mktemp("cache") / "d4.gw24"
    save_store(engine.store, str(path), engine.seed_set, __version__)
    return str(path)


def test_each_command_samples_through_the_degrees_it_reads(
        cache4, tmp_path, monkeypatch):
    # table and invariant sample the degrees they read; verify and both
    # cache commands sample none, since the check each runs next covers
    # every relation.  A file is extended after the point check only.
    events = []
    sample, check = cache_module._verify_sample, cli.degrees_failing_at_a_point
    save = cli.save_store

    def sampled(store, through):
        events.append(("sample", through))
        sample(store, through)

    def checked(tables, max_degree):
        events.append("point check")
        return check(tables, max_degree)

    def saved(*args):
        events.append("write")
        save(*args)

    monkeypatch.setattr(cache_module, "_verify_sample", sampled)
    monkeypatch.setattr(cli, "degrees_failing_at_a_point", checked)
    monkeypatch.setattr(cli, "save_store", saved)
    path = tmp_path / "d4.gw24"
    shutil.copyfile(cache4, path)
    for argv, want in (
            (["table", "--max-degree", "4"], [("sample", 4)]),
            (["table", "--max-degree", "2"], [("sample", 2)]),
            (["invariant", "13", "0", "0", "0", "3"], [("sample", 3)]),
            (["invariant", "13", "0", "0", "1", "3"], []),
            (["verify", "--max-degree", "4"], []),
            (["verify", "--max-degree", "4", "--exhaustive"], []),
            (["cache", "import"], ["point check"]),
            (["cache", "export", "--max-degree", "4"],
             ["point check", "write"]),
            (["invariant", "21", "0", "0", "0", "5"],
             [("sample", 4), "point check", "write"])):
        assert main([*argv, "--cache-path", str(path)]) == 0, argv
        assert events == want, argv
        events.clear()


def test_a_request_rejects_only_the_wrong_degrees_it_reads(engine3, tmp_path,
                                                          capsys):
    # every degree-3 value of the forged file is wrong: requests that read
    # degrees 1-2 only are served, those that read degree 3 exit 2
    path = _forged(engine3, tmp_path)
    before = path.read_bytes()
    for argv, code in ((["invariant", "4", "2", "0", "1", "2"], 0),
                       (["table", "--max-degree", "2"], 0),
                       (["invariant", "13", "0", "0", "0", "3"], 2),
                       (["table", "--max-degree", "3"], 2)):
        assert main([*argv, "--cache-path", str(path)]) == code, argv
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("inconsistency: sample verification "
                                  "failed at degree 3, "), argv
        elif argv[0] == "invariant":
            assert out == "5\n"
        assert path.read_bytes() == before, argv


def test_a_bounded_sample_is_the_start_of_the_full_one(tmp_path, monkeypatch):
    # the same rows and relations, in the same order, up to the bound
    eng = Engine()
    eng.solve_up_to(6)
    path = tmp_path / "d6.gw24"
    save_store(eng.store, str(path), eng.seed_set, __version__)
    build = cache_module.build_equation
    calls = []

    def recorded(family, target, degree, psi):
        calls.append((degree, family, target))
        return build(family, target, degree, psi)

    monkeypatch.setattr(cache_module, "build_equation", recorded)
    load_store(str(path), eng.seed_set)
    full = list(calls)
    assert {c[0] for c in full} == set(range(1, 7))
    for k in range(1, 7):
        calls.clear()
        load_store(str(path), eng.seed_set, sample_through=k)
        assert calls == full[:len(calls)]
        assert calls == [c for c in full if c[0] <= k]


def test_the_sample_calculator_holds_only_the_degrees_below_the_bound(
        cache4, monkeypatch):
    # a relation of degree d reads degree d from the raw table, and its
    # products read only the degrees below d
    calculator = cache_module.PsiCalculator
    built = []

    def recorded(tables):
        built.append(list(tables))
        return calculator(tables)

    monkeypatch.setattr(cache_module, "PsiCalculator", recorded)
    seed_set = Engine().seed_set
    for k in range(1, 5):
        built.clear()
        load_store(cache4, seed_set, sample_through=k)
        assert built == [list(range(1, k))], k


def test_seed_digest_mismatch_rejected(engine3, tmp_path):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    other = SeedSet(entries=dict(engine3.seed_set.entries),
                    provenance_note="other note")
    assert seed_digest(other) == seed_digest(engine3.seed_set)
    entries = dict(engine3.seed_set.entries)
    first = sorted(entries)[0]
    entries[first] = entries[first] + 1
    different = SeedSet(entries=entries, provenance_note="x")
    with pytest.raises(CacheError, match="seed"):
        load_store(str(path), different)


def _saved(path, engine):
    """Save the engine's store to ``path``; return its header and rows."""
    save_store(engine.store, str(path), engine.seed_set, __version__)
    header, *rows = path.read_text().splitlines()
    return json.loads(header), rows


def _redigested(header, rows):
    """Cache text of ``rows`` under ``header`` with a matching row digest,
    so that the loader gets past the digest check."""
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    return (json.dumps(dict(header, content_digest=digest), sort_keys=True)
            + "\n" + "\n".join(rows) + "\n")


def test_malformed_rows_rejected(tmp_path, engine3):
    path = tmp_path / "store.gw24"
    header, rows = _saved(path, engine3)

    path.write_text(_redigested(header, rows + ["1 2 3"]))
    with pytest.raises(CacheError, match="malformed row"):
        load_store(str(path), engine3.seed_set)

    path.write_text(_redigested(header, [r for r in rows
                                         if not r.endswith(" 2 2")]))
    with pytest.raises(CacheError):
        load_store(str(path), engine3.seed_set)


def _rewritten(rows, field, form):
    """``rows`` with one field of its first row of delta 0 and a value of
    at least two digits rewritten as ``form(field text)``, which int()
    still reads as the same number."""
    i = next(i for i, r in enumerate(rows)
             if r.split()[3] == "0" and len(r.split()[5]) > 1)
    fields = rows[i].split()
    fields[field] = form(fields[field])
    return [*rows[:i], " ".join(fields), *rows[i + 1:]]


def _moved_up(rows):
    """``rows`` with the first degree-2 row moved after the first degree-3
    row, so that a later row goes back to a lower degree."""
    i = next(i for i, r in enumerate(rows) if r.split()[4] == "2")
    rest = [*rows[:i], *rows[i + 1:]]
    j = next(j for j, r in enumerate(rest) if r.split()[4] == "3")
    return [*rest[:j + 1], rows[i], *rest[j + 1:]]


def _whole(message):
    """A pattern that matches the whole of ``message`` and nothing else."""
    return re.compile(rf"\A{re.escape(message)}\Z")


def _huge_max_degree(h, rows):
    """The rows of degrees 1..3 under a header that claims 10**9."""
    return _redigested(dict(h, max_degree=10**9), rows)


_MODIFIED = _whole("content digest mismatch: cache rows were modified")


def _spliced(text, sep):
    """``text`` with its second line end replaced by ``sep``."""
    head, row, rest = text.split("\n", 2)
    return f"{head}\n{row}{sep}{rest}"


@pytest.mark.parametrize("corrupt, message", [
    (lambda h, rows: "", "empty cache file"),
    (lambda h, rows: "not json\n" + "\n".join(rows) + "\n",
     "malformed header"),
    (lambda h, rows: _redigested(dict(h, schema=2), rows),
     "unsupported schema version 2"),
    (lambda h, rows: _redigested(h, rows + ["1 2 3 4 5 x"]),
     _whole("malformed row: '1 2 3 4 5 x' where the writer's rows end")),
    (lambda h, rows: _redigested(h, [rows[0].rsplit(" ", 1)[0] + " -1",
                                     *rows[1:]]),
     _whole("malformed row: '0 0 1 1 1 -1' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(h, rows + ["0 5 0 0 1 0"]),
     _whole("malformed row: '0 5 0 0 1 0' where the writer's rows end")),
    (lambda h, rows: _redigested(h, rows + ["1 0 0 0 0 1"]),
     _whole("malformed row: '1 0 0 0 0 1' where the writer's rows end")),
    (lambda h, rows: _redigested(h, rows + rows[:1]),
     _whole("malformed row: '0 0 1 1 1 1' where the writer's rows end")),
    (lambda h, rows: _redigested(h, []),
     _whole("malformed row: '' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(dict(h, max_degree=7), rows),
     _whole("malformed row: '' where the writer writes degree 4 "
            "key (0, 0, 1, 5)")),
    # int() reads each of these as the stored number, which the writer
    # never writes in that form
    (lambda h, rows: _redigested(h, _rewritten(rows, 5, lambda v: "+" + v)),
     _whole("malformed row: '3 2 2 0 2 +11' where the writer writes degree 2 "
            "key (3, 2, 2, 0)")),
    (lambda h, rows: _redigested(h, _rewritten(rows, 5, lambda v: "0" + v)),
     _whole("malformed row: '3 2 2 0 2 011' where the writer writes degree 2 "
            "key (3, 2, 2, 0)")),
    (lambda h, rows: _redigested(h, _rewritten(rows, 0, lambda v: "0" + v)),
     _whole("malformed row: '03 2 2 0 2 11' where the writer writes degree 2 "
            "key (3, 2, 2, 0)")),
    (lambda h, rows: _redigested(
        h, _rewritten(rows, 5, lambda v: v[0] + "_" + v[1:])),
     _whole("malformed row: '3 2 2 0 2 1_1' where the writer writes degree 2 "
            "key (3, 2, 2, 0)")),
    (lambda h, rows: _redigested(
        h, _rewritten(rows, 5, lambda v: "".join(chr(0xFF10 + int(c))
                                                 for c in v))),
     _whole("malformed row: '3 2 2 0 2 \uff11\uff11' where the writer "
            "writes degree 2 key (3, 2, 2, 0)")),
    (lambda h, rows: _redigested(h, _rewritten(rows, 3, lambda v: "-" + v)),
     _whole("malformed row: '3 2 2 -0 2 11' where the writer writes degree 2 "
            "key (3, 2, 2, 0)")),
    # a loader that parses instead of comparing with the writer's text
    # also reads each of these as the stored table
    (lambda h, rows: _redigested(dict(h, schema=True), rows),
     "malformed header"),
    (lambda h, rows: _redigested(dict(h, schema=1.0), rows),
     "malformed header"),
    (lambda h, rows: _redigested(dict(h, max_degree=3.0), rows),
     "malformed header"),
    (lambda h, rows: _redigested(dict(h, note="x"), rows),
     "malformed header"),
    (lambda h, rows: _redigested(dict(h, tool_version=7), rows),
     "malformed header: tool_version 7 is not a string"),
    (lambda h, rows: json.dumps(h, sort_keys=True, separators=(",", ":"))
     + "\n" + "\n".join(rows) + "\n", "malformed header"),
    (lambda h, rows: _redigested(h, rows)[:-1], "malformed row"),
    # the row digest covers the text between the header line and the
    # final line end, so any other line end or a blank line changes it
    (lambda h, rows: _spliced(_redigested(h, rows), "\x1e"), _MODIFIED),
    (lambda h, rows: _spliced(_redigested(h, rows), "\u2028"), _MODIFIED),
    (lambda h, rows: _spliced(_redigested(h, rows), "\x85"), _MODIFIED),
    (lambda h, rows: _spliced(_redigested(h, rows), "\x0c"), _MODIFIED),
    (lambda h, rows: _spliced(_redigested(h, rows), "\x0b"), _MODIFIED),
    (lambda h, rows: _spliced(_redigested(h, rows), "\n\n"), _MODIFIED),
    (lambda h, rows: _redigested(h, [rows[1], rows[0], *rows[2:]]),
     _whole("malformed row: '1 0 2 0 1 1' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(h, _moved_up(rows)),
     _whole("malformed row: '0 0 3 1 2 1' where the writer writes degree 2 "
            "key (0, 0, 0, 3)")),
    (lambda h, rows: _redigested(h, [rows[0] + " ", *rows[1:]]),
     _whole("malformed row: '0 0 1 1 1 1 ' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(h, [rows[0].replace(" ", "  ", 1),
                                     *rows[1:]]),
     _whole("malformed row: '0  0 1 1 1 1' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    # the loader reads only the values; the comparison with the writer's
    # text rejects any other key, even with the row count unchanged
    (lambda h, rows: _redigested(h, [rows[0], "0 1 2 0 1 1", *rows[2:]]),
     _whole("malformed row: '0 1 2 0 1 1' where the writer writes degree 1 "
            "key (1, 0, 2, 0)")),
    (lambda h, rows: _redigested(h, ["001111", *rows[1:]]),
     _whole("malformed row: '001111' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(dict(h, max_degree=True), rows),
     _whole("malformed header: max_degree True is not a positive integer")),
    (lambda h, rows: _redigested(dict(h, max_degree=0), rows),
     _whole("malformed header: max_degree 0 is not a positive integer")),
    (lambda h, rows: _redigested(dict(h, max_degree=-1), rows),
     _whole("malformed header: max_degree -1 is not a positive integer")),
    (_huge_max_degree,
     _whole("malformed row: '' where the writer writes degree 4 "
            "key (0, 0, 1, 5)")),
    # the writer's text in every other field, so only the sign rejects it
    (lambda h, rows: _redigested(h, [*rows[:52], "3 0 5 0 3 -5", *rows[53:]]),
     _whole("malformed row: '3 0 5 0 3 -5' where the writer writes degree 3 "
            "key (3, 0, 5, 0)")),
    # the last row has no line end, so the file's rows end one row early
    (lambda h, rows: _redigested(h, rows[:-1])[:-1],
     _whole("malformed row: '12 1 0 0 3 1824' where the writer writes "
            "degree 3 key (12, 1, 0, 0)")),
    (lambda h, rows: _redigested(h, rows)[:-1],
     _whole("malformed row: '13 0 0 0 3 504' where the writer writes "
            "degree 3 key (13, 0, 0, 0)")),
    (lambda h, rows: _redigested(h, [])[:-2],
     _whole("malformed row: '' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    # the top degree's block is one row short: the empty piece after the
    # final line end takes the last row's place, and no value reads from it
    (lambda h, rows: _redigested(h, rows[:-1]),
     _whole("malformed row: '' where the writer writes degree 3 "
            "key (13, 0, 0, 0)")),
    # two faults: the first in file order is named
    (lambda h, rows: _redigested(h, [rows[0].rsplit(" ", 1)[0] + " -1",
                                     *rows[1:], "1 2 3 4 5 6"]),
     _whole("malformed row: '0 0 1 1 1 -1' where the writer writes degree 1 "
            "key (0, 0, 1, 1)")),
    (lambda h, rows: _redigested(h, [*rows[:9], rows[9].replace(" ", "  ", 1),
                                     *rows[10:-1]]),
     _whole("malformed row: '0  0 0 3 2 1' where the writer writes degree 2 "
            "key (0, 0, 0, 3)")),
], ids=["empty", "header-not-json", "schema", "row-not-integers",
        "negative-value", "alpha-below-beta", "degree-0", "duplicate",
        "no-rows", "header-max-degree", "value-plus-sign",
        "value-leading-zero", "alpha-leading-zero", "value-underscore",
        "value-fullwidth-digits", "delta-minus-zero",
        "schema-true", "schema-float", "header-max-degree-float",
        "header-extra-key", "tool-version-int", "header-respaced",
        "no-final-newline", "separator-x1e", "separator-u2028",
        "separator-x85", "separator-x0c", "separator-x0b", "blank-line",
        "rows-reordered", "row-back-to-lower-degree", "row-trailing-space",
        "row-doubled-space", "key-edited-in-place", "row-without-space",
        "header-max-degree-true", "header-max-degree-0",
        "header-max-degree-negative", "header-max-degree-huge",
        "negative-middle-value", "short-degree-no-final-newline",
        "no-final-newline-names-last-row", "header-without-line-end",
        "last-row-deleted", "negative-value-and-row-past-the-end",
        "doubled-space-and-last-row-deleted"])
def test_every_loader_rejection(tmp_path, engine3, capsys, corrupt, message):
    path = tmp_path / "store.gw24"
    header, rows = _saved(path, engine3)
    path.write_text(corrupt(header, rows), encoding="utf-8")
    with pytest.raises(CacheError, match=message) as rejection:
        load_store(str(path), engine3.seed_set)
    assert main(["cache", "import", "--cache-path", str(path)]) == 2
    assert capsys.readouterr().err == f"inconsistency: {rejection.value}\n"


def test_every_edit_is_rejected_or_is_the_writers_text(tmp_path, engine3):
    # seeded edits of 1-3 characters, most with the row digest recomputed:
    # a load raises CacheError or returns the store the file is the
    # writer's text of, under the header's tool_version.  A rejected row is
    # a piece of the file after its header line, or '' if there is none
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    text = path.read_text()
    digest = json.loads(text.split("\n", 1)[0])["content_digest"]
    alphabet = "0123456789 -+_x{}\":,\n\r\x1e\x85"
    rng = random.Random(0x67773235)
    for _ in range(2000):
        at, size = rng.randrange(len(text) + 1), rng.randint(1, 3)
        chars = "".join(rng.choice(alphabet) for _ in range(size))
        edited = rng.choice([text[:at] + chars + text[at:],
                             text[:at] + text[at + size:],
                             text[:at] + chars + text[at + size:]])
        if rng.random() < 0.8:
            lines = edited.replace("\r\n", "\n").replace("\r", "\n")
            rows = [r for r in lines.splitlines()[1:] if r.strip()]
            edited = edited.replace(digest, hashlib.sha256(
                "\n".join(rows).encode()).hexdigest())
        path.write_text(edited, encoding="utf-8", newline="")
        loaded = path.read_text(encoding="utf-8")
        try:
            store = load_store(str(path), engine3.seed_set,
                               sample_through=0)
        except CacheError as exc:
            message = str(exc)
            if message.startswith("malformed row: "):
                named = ast.literal_eval(message[len("malformed row: "):]
                                         .rpartition(" where the writer")[0])
                assert named in loaded.split("\n")[1:] or named == "", message
            continue
        version = json.loads(loaded.split("\n", 1)[0])["tool_version"]
        assert _render(store, engine3.seed_set, version) == loaded


def test_huge_max_degree_builds_no_keys_past_the_rows(tmp_path, engine3,
                                                     monkeypatch):
    # the rows end in degree 4, and neither the load nor its error path
    # builds the keys of any degree above it
    path = tmp_path / "store.gw24"
    path.write_text(_huge_max_degree(*_saved(path, engine3)))
    asked = []

    def recorded(degree):
        asked.append(degree)
        return canonical_keys(degree)

    monkeypatch.setattr(cache_module, "canonical_keys", recorded)
    monkeypatch.setattr(engine_module, "canonical_keys", recorded)
    with pytest.raises(CacheError, match="degree 4 key"):
        load_store(str(path), engine3.seed_set)
    assert set(asked) == {1, 2, 3, 4}


def test_crlf_copy_loads(tmp_path, engine3):
    # text mode reads CRLF line ends as LF, so this is the writer's text
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = load_store(str(path), engine3.seed_set)
    assert loaded.raw_tables() == engine3.store.raw_tables()


@pytest.mark.parametrize("change, message", [
    (lambda rows: [r for r in rows if r != "0 0 0 3 2 1"],
     "malformed row: '0 0 3 1 2 1' where the writer writes degree 2 "
     "key (0, 0, 0, 3)"),
    (lambda rows: rows + ["6 0 0 0 2 1"],
     "malformed row: '6 0 0 0 2 1' where the writer's rows end"),
], ids=["missing-key", "unexpected-key"])
def test_wrong_key_set_names_the_key(tmp_path, change, message):
    eng = Engine()
    eng.solve_up_to(4)
    path = tmp_path / "store.gw24"
    header, rows = _saved(path, eng)
    path.write_text(_redigested(header, change(rows)))
    with pytest.raises(CacheError, match=_whole(message)):
        load_store(str(path), eng.seed_set)


def test_malformed_header_or_encoding_rejected(tmp_path, engine3):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    for not_an_object in (b"[1, 2]\n", b'"x"\n'):
        path.write_bytes(not_an_object + b"".join(rows))
        with pytest.raises(CacheError, match="header: not a JSON object"):
            load_store(str(path), engine3.seed_set)
    path.write_bytes(header + b"\xff\xfe 1 2\n" + b"".join(rows))
    with pytest.raises(CacheError, match="not UTF-8"):
        load_store(str(path), engine3.seed_set)


def test_missing_degree_rejected(tmp_path, engine3):
    path = tmp_path / "store.gw24"
    header, rows = _saved(path, engine3)
    path.write_text(_redigested(header, [r for r in rows
                                         if r.split()[4] != "2"]))
    with pytest.raises(CacheError, match=_whole(
            "malformed row: '0 0 2 3 3 2' where the writer writes degree 2 "
            "key (0, 0, 0, 3)")):
        load_store(str(path), engine3.seed_set)


def test_save_is_atomic_no_temp_left(engine3, tmp_path):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    assert [p.name for p in tmp_path.iterdir()] == ["store.gw24"]


def test_failed_write_keeps_the_old_file(engine3, tmp_path, monkeypatch,
                                        capsys):
    path = tmp_path / "store.gw24"
    save_store(engine3.store, str(path), engine3.seed_set, __version__)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    # the export loads degrees 1..3, solves degree 4 and fails to write
    assert main(["cache", "export", "--max-degree", "4",
                 "--cache-path", str(path)]) == 1
    assert "usage error: cannot write cache file" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.gw24"]


def test_big_values_round_trip(tmp_path):
    # the values pass 2**64 from degree 7 on; each comes back exactly
    eng = Engine()
    eng.solve_up_to(7)
    assert max(eng.store.canonical_table(7).values()) > 2**64
    path = tmp_path / "store.gw24"
    save_store(eng.store, str(path), eng.seed_set, __version__)
    loaded = load_store(str(path), eng.seed_set)
    assert loaded.max_degree == 7
    for d in range(1, 8):
        assert loaded.canonical_table(d) == eng.store.canonical_table(d)
