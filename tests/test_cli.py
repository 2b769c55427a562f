"""Front-end behavior: formatting, exit codes, files, determinism."""

import json
import os
import subprocess
import sys

import pytest

from cdalg import cli, suites


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_golden(capsys):
    code, out, _ = run(capsys, "mul", "-n", "4", "e1+e10", "e15-e4")
    assert code == 0 and out == "0\n"


def test_assoc_golden(capsys):
    code, out, _ = run(capsys, "assoc", "-n", "4", "e1", "e15", "e2")
    assert code == 0 and out == "2*e12\n"


def test_conj_golden(capsys):
    code, out, _ = run(capsys, "conj", "-n", "3", "e0+e5")
    assert code == 0 and out == "e0-e5\n"


def test_inner_prints_scalar(capsys):
    code, out, _ = run(capsys, "inner", "-n", "2", "e1+2*e2", "3*e2")
    assert code == 0 and out == "6\n"


def test_parse_error_exit_two(capsys):
    code, out, err = run(capsys, "mul", "-n", "3", "e1+", "e2")
    assert code == 2 and "position" in err


def test_level_cap(capsys, monkeypatch):
    monkeypatch.delenv("CDALG_MAX_LEVEL", raising=False)
    code, _, err = run(capsys, "mul", "-n", "9", "e1", "e1")
    assert code == 2 and "CDALG_MAX_LEVEL" in err
    monkeypatch.setenv("CDALG_MAX_LEVEL", "9")
    code, out, _ = run(capsys, "mul", "-n", "9", "e1", "e2")
    assert code == 0 and out == "e3\n"
    monkeypatch.setenv("CDALG_MAX_LEVEL", "garbage")
    code, _, err = run(capsys, "mul", "-n", "4", "e1", "e2")
    assert code == 2


def test_precondition_exit_three(capsys):
    code, _, err = run(capsys, "ann", "-n", "3", "0")
    assert code == 3 and "zero" in err


def test_ann_text_and_json(capsys):
    code, out, _ = run(capsys, "ann", "-n", "4", "e1+e10")
    assert code == 0
    assert out.splitlines()[0] == "dim 4"
    assert len(out.splitlines()) == 5
    code, out, _ = run(capsys, "ann", "-n", "4", "e1+e10", "--format", "json")
    payload = json.loads(out)
    assert payload["dim"] == 4 and len(payload["basis"]) == 4
    code, out, _ = run(capsys, "ann", "-n", "4", "e1")
    assert out.splitlines()[0] == "dim 0"


def test_decompose_output(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "4", "e1+e10")
    assert code == 0
    assert "total dim 16" in out
    assert "lambda_sq=2.000000 (exact 2) dim 4" in out
    code, out, _ = run(capsys, "decompose", "-n", "4", "e1+e10", "--format", "json")
    payload = json.loads(out)
    assert payload["total_dim"] == 16
    assert payload["middle"] == [{"lambda_sq": 2.0, "dim": 4, "exact": "2"}]


def test_zd_text_report(capsys):
    code, out, _ = run(capsys, "zd", "-n", "3", "e1", "e2")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["zero divisor"] == "yes"
    assert lines["criterion hit"] == "yes"
    assert lines["kernel dim"] == "4"
    assert lines["special zero divisor"] == "yes"


def test_zd_json_report(capsys):
    code, out, _ = run(capsys, "zd", "-n", "3", "e1", "e1", "--format", "json")
    payload = json.loads(out)
    assert payload["is_zero_divisor"] is False
    assert payload["witness_x"] is None
    assert payload["special_zd"] is None
    assert payload["pair_level"] == 4


def test_zd_json_payload_pinned(capsys):
    code, out, _ = run(capsys, "zd", "-n", "3", "e1", "e2", "--format", "json")
    assert code == 0
    assert out == (
        '{"a": "e1", "b": "e2", "criterion_hit": true, "is_zero_divisor": true, '
        '"ker_dim": 4, "level": 3, "pair_level": 4, "special_couple": true, '
        '"special_zd": true, "witness_x": "e7", "witness_y": "e4"}\n')


def test_zd_precondition(capsys):
    code, _, err = run(capsys, "zd", "-n", "4", "e1+e10", "e2")
    assert code == 3


def test_zdf_remark(capsys):
    s = "0.7071067811865476"
    code, out, _ = run(capsys, "zdf", "-n", "3",
                       "0,1,0,0,0,0,0,0", f"0,{s},{s},0,0,0,0,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["nullity"] == 0
    assert payload["is_zero_divisor"] is False
    assert payload["alternative"] is False


@pytest.mark.parametrize("a, b, extra", [
    ("0,nan,0,0", "0,0,1,0", ()),
    ("0,inf,0,0", "0,0,1,0", ()),
    ("0,1,0,0", "0,0,-inf,0", ()),
    ("0,1,0,0", "0,0,1,0", ("--tolerance", "nan")),
    ("0,1,0,0", "0,0,1,0", ("--tolerance", "inf")),
    ("0,1,0,0", "0,0,1,0", ("--tolerance", "0")),
])
def test_zdf_refuses_non_finite_input(capsys, a, b, extra):
    code, out, err = run(capsys, "zdf", a, b, *extra)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "finite" in err


def test_zdf_unparsable_coordinate_is_parse_error(capsys):
    code, out, err = run(capsys, "zdf", "0,1,x,0", "0,0,1,0")
    assert code == 2 and out == ""
    assert err == "parse error: not a number: 'x' (at position 4)\n"


def test_search_to_file(tmp_path, capsys):
    target = tmp_path / "catalog.jsonl"
    code, out, _ = run(capsys, "search", "-n", "3", "--family", "basis_pairs",
                       "--out", str(target))
    assert code == 0
    summary = json.loads(out)
    assert summary == {"entries": 21, "zero_divisors": 21,
                       "special_zds": 21, "criterion_mismatches": 0}
    lines = target.read_text().splitlines()
    assert len(lines) == 21
    assert json.loads(lines[0])["a"] == "e1"

    again = tmp_path / "again.jsonl"
    run(capsys, "search", "-n", "3", "--family", "basis_pairs", "--out", str(again))
    assert target.read_text() == again.read_text()


def test_search_csv_stdout(capsys):
    code, out, err = run(capsys, "search", "-n", "2", "--family", "basis_pairs",
                         "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("schema_version,level,a,b")
    assert json.loads(err)["entries"] == 3


def test_search_text_listing(capsys):
    code, out, _ = run(capsys, "search", "-n", "2", "--family", "basis_pairs")
    assert code == 0
    body = out.splitlines()
    assert len(body) == 4  # three rows and the summary line
    assert "a=e1 b=e2" in body[0]


def test_search_random_family(capsys):
    code, out, err = run(capsys, "search", "-n", "3", "--family",
                         "random_rational", "--count", "5", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_verify_suites_pass(capsys):
    for suite, level in (("core_identities", "3"), ("chapter1", "3"),
                         ("hurwitz_boundary", "2"), ("hurwitz_boundary", "4")):
        code, out, _ = run(capsys, "verify", "--suite", suite, "-n", level,
                           "--trials", "5", "--seed", "1")
        assert code == 0, (suite, out)
        assert out.count("PASS") == len(out.splitlines())


def test_verify_chapter2_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chapter2", "-n", "3",
                       "--trials", "4", "--seed", "2")
    assert code == 0
    assert "criterion agrees with the kernel" in out


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "core_identities", "-n", "3",
            "--trials", "10", "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_level_guard(capsys):
    code, _, err = run(capsys, "verify", "--suite", "chapter2", "-n", "2")
    assert code == 3 and err == "error: chapter2 suite needs level >= 3\n"
    code, _, err = run(capsys, "verify", "--suite", "chapter1", "-n", "1")
    assert code == 3 and err == "error: chapter1 suite needs level >= 2\n"


def test_verify_chapter2_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chapter2", "-n", "4",
                       "--trials", "10", "--seed", "3")
    assert code == 0
    assert out == (
        "PASS couple multiplication tables (2 checks)\n"
        "PASS couple kernel splitting (1 checks)\n"
        "PASS projected alternator identity (2 checks)\n"
        "PASS restricted annihilation equivalence (10 checks)\n"
        "PASS criterion agrees with the kernel (10 checks)\n"
        "PASS kernel dimension bound (10 checks)\n"
        "PASS special triple symmetry (10 checks)\n"
        "PASS alternative sums give special zero divisors (1 checks)\n")


def test_verify_reports_failures(capsys, monkeypatch):
    def doomed(rng, level, trials):
        raise suites.VerificationError("x=e1 y=e2")

    def counts(rng, level, trials):
        return level * trials

    monkeypatch.setitem(suites.SUITES, "core_identities",
                        (0, lambda level: [("always fails", doomed),
                                           ("still runs", counts)]))
    code, out, _ = run(capsys, "verify", "--suite", "core_identities", "-n", "2",
                       "--trials", "7")
    assert code == 1
    assert out == "FAIL always fails: x=e1 y=e2\nPASS still runs (14 checks)\n"


def test_verify_does_not_report_bugs_as_failures(capsys, monkeypatch):
    # a plain AssertionError is a bug in a check, not a counterexample
    def buggy(rng, level, trials):
        raise AssertionError("bug")

    monkeypatch.setitem(suites.SUITES, "core_identities",
                        (0, lambda level: [("buggy", buggy)]))
    with pytest.raises(AssertionError, match="bug"):
        cli.main(["verify", "--suite", "core_identities", "-n", "2"])


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "cdalg.cli", "mul", "-n", "4",
                           "e1+e10", "e15-e4"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_usage_error_exit_two():
    proc = subprocess.run([sys.executable, "-m", "cdalg.cli", "mul", "-n", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_closed_stdout_exits_quietly():
    # with block-buffered stdout, mul's one line fails at the final flush,
    # and search's 16 kB of JSON lines fail inside the writer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        procs = [subprocess.Popen([sys.executable, "-m", "cdalg.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=env)
                 for argv in (["mul", "-n", "4", "e1", "e2"],
                              ["search", "-n", "2", "--family", "random_rational",
                               "--count", "60", "--format", "json"])]
    finally:
        os.close(write_end)
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141, err
        assert "Traceback" not in err and "Exception ignored" not in err
