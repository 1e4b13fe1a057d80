import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubiclifford
from cubiclifford import cli, disc, pointmod
from cubiclifford.cli import main
from cubiclifford.freealg import clifford_relations, parse_poly
from cubiclifford.rewrite import complete


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_hilbert(capsys):
    code, payload = run_json(capsys, "hilbert", "--max-degree", "6")
    assert code == 0
    assert payload["schema"] == 1 and payload["ok"]
    assert payload["table"][4] == {"degree": 4, "engine": 13, "oracle": 13,
                                   "match": True}


def test_nf(capsys):
    code, payload = run_json(capsys, "nf", "--poly", "1*xxxy + -1*yxxx")
    assert code == 0
    assert payload["normal_form"] == "0"


def test_nf_accepts_any_degree(capsys, f13):
    # nf completes to the degree of its polynomial, here 14
    poly = "1*xxxxxxxxxxxxxy + -1*yxxxxxxxxxxxxx"
    want = complete(clifford_relations(f13), degree_bound=20).normal_form(
        parse_poly(f13, poly))
    code, payload = run_json(capsys, "nf", "--poly", poly)
    assert code == 0
    assert payload["normal_form"] == want.serialize()


@pytest.mark.parametrize("poly", ["1/13*x", "1/0*x"])
def test_zero_denominator_is_usage_error(capsys, poly):
    # 13 is zero in F_13, the default field
    code = main(["nf", "--poly", poly])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert poly in captured.err


def test_center_check(capsys):
    code, payload = run_json(capsys, "center-check")
    assert code == 0
    assert all(payload["verdicts"].values())
    assert set(payload["verdicts"]) >= {"z0", "z1", "z2", "z3", "z4", "z5"}


def test_relation_check(capsys):
    code, payload = run_json(capsys, "relation-check", "--prime", "31")
    assert code == 0
    assert payload["relation_holds"]


def test_singular_check(capsys):
    code, payload = run_json(capsys, "singular-check", "--point", "1,1,1,1")
    assert code == 0
    assert payload["discriminant"] == 0
    assert payload["on_twisted_cubic"]
    assert payload["singular_locus_member"]
    assert payload["partials"] == [0, 0, 0, 0]


def test_quotient_and_dump(capsys, tmp_path):
    dump = str(tmp_path / "alg.json")
    code, payload = run_json(capsys, "quotient", "--point", "0,0,0,0",
                             "--dump", dump)
    assert code == 0
    assert payload["dim"] == 17
    with open(dump) as fh:
        stored = json.load(fh)
    assert stored["dim"] == 17


def test_irreps(capsys):
    code, payload = run_json(capsys, "irreps", "--point", "1,1,1,1")
    assert code == 0
    assert payload["dim"] == 15
    assert payload["gram_rank"] == 3
    assert payload["irrep_dims"] == [1, 1, 1]
    assert len(payload["dim1_reps"]) == 3


@pytest.mark.parametrize("point, stdout", [
    ("1,1,1,1", '{"blocks":[[1,1],[1,1],[1,1]],"dim":15,'
                '"dim1_reps":[[1,1],[3,3],[9,9]],"gram_rank":3,'
                '"irrep_dims":[1,1,1],"ok":true,"point":[1,1,1,1,0,0],'
                '"prime":13,"schema":1,"sum_of_squares":3}\n'),
    ("0,0,0,0", '{"blocks":[[1,1]],"dim":17,"dim1_reps":[[0,0]],'
                '"gram_rank":1,"irrep_dims":[1],"ok":true,'
                '"point":[0,0,0,0,0,0],"prime":13,"schema":1,'
                '"sum_of_squares":1}\n'),
], ids=["cubic", "origin"])
def test_irreps_stdout_pinned(capsys, point, stdout):
    assert main(["irreps", "--point", point]) == 0
    assert capsys.readouterr().out == stdout


def _run_python(code):
    """Run code in a fresh interpreter that imports this cubiclifford."""
    src = str(Path(cubiclifford.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_does_not_load_sympy():
    res = _run_python("import sys, cubiclifford.cli; "
                      "print('sympy' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_irreps_runs_with_sympy_blocked():
    # a None entry in sys.modules makes every import of sympy raise
    res = _run_python("import sys; sys.modules['sympy'] = None; "
                      "from cubiclifford.cli import main; "
                      "sys.exit(main(['irreps', '--point', '1,1,1,1']))")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["irrep_dims"] == [1, 1, 1]


def test_search_dim2(capsys):
    code, payload = run_json(capsys, "search-dim2", "--prime", "7")
    assert code == 0
    assert payload["irreducible_pairs"] == 0


@pytest.mark.parametrize("prime, stdout", [
    ("7", '{"irreducible_pairs":0,"ok":true,"prime":7,'
          '"reducible_solutions":931,"schema":1,"x_forms_tested":7}\n'),
    ("13", '{"irreducible_pairs":0,"ok":true,"prime":13,'
           '"reducible_solutions":6253,"schema":1,"x_forms_tested":13}\n'),
    ("11", '{"irreducible_pairs":0,"ok":true,"prime":11,'
           '"reducible_solutions":1331,"schema":1,"x_forms_tested":11}\n'),
], ids=["p7", "p13", "p11"])
def test_search_dim2_stdout_pinned(capsys, prime, stdout):
    assert main(["search-dim2", "--prime", prime]) == 0
    assert capsys.readouterr().out == stdout


def test_point_module_diagonal(capsys):
    code, payload = run_json(capsys, "point-module",
                             "--triple", "1:2,1:2,1:2")
    assert code == 0
    assert payload["next_point"] == [1, 2]
    assert payload["gamma_squared_equals_XYZ"]
    assert payload["predicted_simple_quotient_dims"] == [1]
    assert payload["central_character_singular"]


def test_point_module_off_diagonal(capsys):
    code, payload = run_json(capsys, "point-module",
                             "--triple", "1:0,0:1,1:1")
    assert code == 0
    assert payload["predicted_simple_quotient_dims"] == [0, 3]
    assert not payload["abc_system_admits_solution"]
    assert "central_character" not in payload


def test_disc_locus(capsys):
    code, payload = run_json(capsys, "disc-locus", "--ell", "3,12",
                             "--samples", "2")
    assert code == 0
    rep = payload["report"]
    assert rep["3"]["cubic"]["members"] == 0
    assert rep["12"]["smooth"]["members"] == 2


def test_verify_all_and_determinism(capsys):
    code1, out1 = run(capsys, "verify-all", "--prime", "13", "--seed", "0")
    code2, out2 = run(capsys, "verify-all", "--prime", "13", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] and all(payload["results"].values())
    assert "skipped" not in payload


def test_verify_all_checks_dim2_above_sweep_cap(capsys):
    # 37 > DIM2_MAX_P: the certificate, not the sweep, decides the claim
    code, payload = run_json(capsys, "verify-all", "--prime", "37")
    assert code == 0
    assert payload["results"]["no_dim2_irreps"] is True
    assert "skipped" not in payload
    assert payload["ok"] and all(payload["results"].values())


@pytest.mark.parametrize("prime", ["11", "17"])
def test_verify_all_at_primes_2_mod_3(capsys, prime):
    # F_p has no primitive cube root of unity; every check still runs
    code, payload = run_json(capsys, "verify-all", "--prime", prime)
    assert code == 0
    assert payload["ok"] and all(payload["results"].values())
    assert len(payload["results"]) == 11


def test_center_check_at_11(capsys):
    code, payload = run_json(capsys, "center-check", "--prime", "11")
    assert code == 0 and all(payload["verdicts"].values())


def test_verify_all_at_5_fails_loudly(capsys):
    # dim 15 > p = 5: the trace kernel is not certified to be the radical
    code, out = run(capsys, "verify-all", "--prime", "5")
    assert code == 1
    assert len(out.splitlines()) == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["error"] == "CharacteristicTooSmall"


def test_verify_all_fails_on_a_short_stratum(capsys, monkeypatch):
    # with the degenerate stratum emptied, "no point" and "every point"
    # would both hold vacuously there; the trichotomy must fail instead
    real = disc.sample_points

    def without_degenerate(*args, **kwargs):
        strata = real(*args, **kwargs)
        strata["degenerate"] = []
        return strata

    monkeypatch.setattr(disc, "sample_points", without_degenerate)
    code, payload = run_json(capsys, "verify-all", "--prime", "13")
    assert code == 1 and not payload["ok"]
    assert payload["results"]["trichotomy"] is False
    assert all(v for k, v in payload["results"].items() if k != "trichotomy")


def test_error_exit_code_one(capsys):
    # characteristic 3 is rejected by the field layer
    code, out = run(capsys, "hilbert", "--prime", "3")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["error"] == "CharTwoOrThree"


def test_typed_error_in_a_command_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(pointmod, "step_matrix",
                        lambda field, t: [[0, 0], [0, 0], [0, 0]])
    code, out = run(capsys, "point-module", "--triple", "1:0,1:1,1:2")
    assert code == 1
    assert out == ('{"error":"KernelDimensionUnexpected","message":"step '
                   'system has kernel dimension 2, expected 1","ok":false,'
                   '"schema":1}')


def test_usage_error_exit_code_two(capsys):
    code = main(["singular-check", "--point", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip()


@pytest.mark.parametrize("argv", [
    ["quotient", "--point", "1,0,0,1,4,0", "--seed", "1"],
    ["verify-all", "--degree-bound", "20"],
    ["nf", "--poly", "x", "--degree-bound", "20"],
    ["irreps", "--point", "1,1,1,1", "--seed", "1"],
], ids=["quotient-seed", "verify-all-degree-bound", "nf-degree-bound",
        "irreps-seed"])
def test_flag_of_another_subcommand_is_usage_error(capsys, argv):
    # --seed belongs only to the subcommands that read it, and no
    # subcommand takes a completion bound
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("argv", [
    ["hilbert", "--max-degree", "-1"],
    ["disc-locus", "--samples", "0", "--ell", "0,-3"],
    ["disc-locus", "--samples", "-1"],
    ["disc-locus", "--ell", "3,0"],
], ids=["negative-degree", "no-samples", "negative-samples", "zero-ell"])
def test_out_of_range_count_is_usage_error(capsys, argv):
    # rejected while parsing: an empty table or stratum would pass
    # vacuously, and a negative sample count never stops drawing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[-2] in captured.err


def test_non_integer_ell_is_usage_error(capsys):
    # the message names the option, not the parser's helper function
    with pytest.raises(SystemExit) as exc:
        main(["disc-locus", "--ell", "3,x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "cubiclifford disc-locus: error: argument --ell: --ell takes "
        "comma-separated positive integers, not '3,x'")


def test_unwritable_dump_is_usage_error(capsys, tmp_path):
    dump = str(tmp_path / "missing" / "alg.json")
    code = main(["quotient", "--point", "1,0,0,1,4,0", "--dump", dump])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_unwritable_dump_fails_before_the_build(capsys, tmp_path,
                                                monkeypatch):
    def failing_build(field, pt):
        raise RuntimeError("build_quotient ran")

    monkeypatch.setattr(cli, "build_quotient", failing_build)
    argv = ["quotient", "--point", "1,0,0,1,4,0", "--dump"]
    code = main(argv + [str(tmp_path / "missing" / "alg.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    # a build that fails neither creates nor truncates a writable target
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old")
    for dump in (fresh, kept):
        with pytest.raises(RuntimeError):
            main(argv + [str(dump)])
    assert not fresh.exists() and kept.read_text() == "old"


def test_human_output(capsys):
    code, out = run(capsys, "nf", "--poly", "yx", "--output", "human")
    assert code == 0
    assert "normal_form:" in out


def test_environment_does_not_set_the_prime(capsys, monkeypatch):
    monkeypatch.setenv("CUBICLIFFORD_PRIME", "31")
    code, payload = run_json(capsys, "relation-check")
    assert code == 0
    assert payload["prime"] == 13
