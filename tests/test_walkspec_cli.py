import argparse
import ast
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from pathlib import Path

import pytest

import freewalk
from freewalk import closedform as cf
from freewalk import verify
from freewalk.cli import _CLOSED_FORMS, _f17, build_parser, main
from freewalk.groups import Letter, free_product_of_cyclics, letter_lengths
from freewalk.simulate import estimate_drift
from freewalk.traffic import solve_walk
from freewalk.walkspec import (
    WalkSpec,
    build_family,
    cyclic_walk,
    load_spec,
    minimal_generators,
    parse_spec,
    resolve_generators,
)

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def test_parse_spec_explicit_measure():
    spec = parse_spec(
        {
            "factors": [{"cyclic": 2}, {"table": KLEIN_TABLE}],
            "measure": {"letters": {"0:1": 0.4, "1:1": 0.3, "1:2": 0.3}},
            "generators": ["0:1", "1:1", "1:2"],
            "tol": 1e-12,
        }
    )
    assert spec.product.nletters == 4
    assert abs(spec.mu[Letter(0, 1)] - 0.4) < 1e-15
    assert spec.generators == (Letter(0, 1), Letter(1, 1), Letter(1, 2))
    assert spec.tol == 1e-12


def test_parse_spec_family_and_unknown_keys():
    spec = parse_spec({"measure": {"family": "zkzk-simple", "k": 4}})
    assert spec.product.factors[0].order == 4
    with pytest.raises(ValueError, match="unknown spec keys"):
        parse_spec({"measure": {"family": "zkzk-simple", "k": 4}, "extra": 1})
    with pytest.raises(ValueError):
        parse_spec(
            {
                "factors": [{"cyclic": 3}, {"cyclic": 3}],
                "measure": {"family": "zkzk-simple", "k": 4},
            }
        )
    with pytest.raises(ValueError):
        build_family("no-such-family")
    with pytest.raises(ValueError):
        build_family("zkzk-simple", k=4, bogus=1)


def test_parse_spec_leaves_absent_options_to_walkspec_defaults():
    spec = parse_spec({"measure": {"family": "zkzk-simple", "k": 4}})
    defaults = {f.name: f.default for f in dataclasses.fields(WalkSpec)
                if f.default is not dataclasses.MISSING}
    assert set(defaults) == {"tol", "max_iter", "seed"}
    assert {name: getattr(spec, name) for name in defaults} == defaults


def test_build_family_messages_name_the_builder_parameters():
    with pytest.raises(ValueError, match=re.escape("family 'z2z3' does not take ['k']")):
        build_family("z2z3", p=0.2, q=0.3, k=4)
    with pytest.raises(ValueError, match="^family 'z3z3-asym' needs p, q$"):
        build_family("z3z3-asym")
    with pytest.raises(ValueError, match="^family 'extremal' needs orders$"):
        build_family("extremal")


def test_load_spec_roundtrip(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(
        json.dumps(
            {
                "factors": [{"cyclic": 2}, {"cyclic": 3}],
                "measure": {"letters": {"0:1": 0.34, "1:1": 0.33, "1:2": 0.33}},
                "generators": "natural",
                "seed": 7,
            }
        )
    )
    spec = load_spec(str(path))
    assert spec.seed == 7
    assert spec.generators == spec.product.alphabet


def test_spec_walk_matches_the_builder_walk(tmp_path):
    masses = dict(zip(["0:1", "0:2", "1:1", "1:2", "1:3", "1:4"], [0.1, 0.2, 0.1, 0.2, 0.3, 0.1]))
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"factors": [{"cyclic": 3}, {"cyclic": 5}],
                                "measure": {"letters": masses}}))
    spec = load_spec(str(path))
    product, mu = cyclic_walk((3, 5), {Letter.parse(u): mass for u, mass in masses.items()})
    assert spec.product.factors == product.factors
    assert spec.mu.probs.tobytes() == mu.probs.tobytes()
    assert (solve_walk(spec.product, spec.mu).q.values.tobytes()
            == solve_walk(product, mu).q.values.tobytes())


@pytest.mark.parametrize(
    "factors, message",
    [
        ([{"cyclic": 1}, {"cyclic": 3.5}], "cyclic group needs order >= 2, got 1"),
        ([{"cyclic": 3}, {"cyclic": 3.5}], "cyclic must be an integer, got 3.5"),
        ([{"cyclic": 3}], "a free product needs at least two factors, got 1"),
        ([{"cyclic": 1}, {"table": 5}], "cyclic group needs order >= 2, got 1"),
        ([{"cyclic": 3}, {"cyc": 3}], "factor spec must be"),
    ],
    ids=["bad-order-before-fraction", "fractional-order", "one-factor", "bad-order-before-table",
         "unknown-factor-key"],
)
def test_cyclic_factor_lists_keep_their_errors_in_order(factors, message):
    # a list raises the error of its first bad factor
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_spec({"factors": factors, "measure": {"letters": {"0:1": 1.0}}})


def test_minimal_generators_cyclic_only():
    product = free_product_of_cyclics(2, 4)
    assert minimal_generators(product) == (Letter(0, 1), Letter(1, 1), Letter(1, 3))
    from freewalk.groups import FreeProduct, make_cyclic, make_finite_group

    klein_product = FreeProduct([make_finite_group(KLEIN_TABLE), make_cyclic(3)])
    with pytest.raises(ValueError):
        minimal_generators(klein_product)


def test_resolve_generators_variants():
    product = free_product_of_cyclics(2, 3)
    assert resolve_generators(product, None) == product.alphabet
    assert resolve_generators(product, "natural") == product.alphabet
    assert resolve_generators(product, ["0:1", "1:2"]) == (Letter(0, 1), Letter(1, 2))
    with pytest.raises(ValueError):
        resolve_generators(product, ["0:5"])


# (option, type, default) of every walk subcommand's leading options, in order
WALK_OPTIONS = [
    ("-h", None, argparse.SUPPRESS),
    ("--spec", None, None),
    ("--family", None, None),
    ("--k", int, None),
    ("--p", float, None),
    ("--q", float, None),
    ("--orders", None, None),
    ("--weights", None, None),
    ("--gens", None, None),
    ("--tol", float, None),
    ("--max-iter", int, None),
    ("--seed", int, None),
]


@pytest.mark.parametrize("command", ["solve", "simulate", "cylinder", "quality"])
def test_walk_subcommands_share_the_walk_options(command):
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    actions = commands[command]._actions[:len(WALK_OPTIONS)]
    assert [(a.option_strings[0], a.type, a.default) for a in actions] == WALK_OPTIONS


def test_cli_solve_and_exit_codes(capsys):
    assert main(["solve", "--family", "zkzk-simple", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "gamma = 0.30901699437494734" in out
    assert "stationary = true" in out
    # recurrent product: exit 3
    assert main(["solve", "--family", "uniform-per-factor", "--orders", "2,2"]) == 3
    assert main(["solve", "--family", "no-such"]) == 3
    assert main(["solve"]) == 3  # neither spec nor family


def test_cli_solve_from_spec_file(tmp_path, capsys):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"measure": {"family": "hecke-simple", "k": 4}}))
    assert main(["solve", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "gamma = 0.18286125678495" in out
    assert main(["solve", "--spec", str(tmp_path / "missing.json")]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "zkzk-simple"],
        ["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal",
         "--sup", "--resolution", "0"],
        ["sweep", "--family", "z2z3", "--resolution", "0"],
        ["simulate", "--family", "hecke-simple", "--k", "3", "--steps", "10", "--reps", "2",
         "--seed", "-1"],
        ["solve", "--family", "zkzk-simple", "--k", "4", "--tol", "0"],
        ["solve", "--family", "zkzk-simple", "--k", "4", "--tol", "nan"],
        ["sweep", "--family", "z2z3", "--resolution", "0.25", "--tol", "0"],
        ["sweep", "--family", "z2z3", "--resolution", "0.25", "--tol", "nan"],
        ["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal",
         "--sup", "--resolution", "0.1", "--tol", "0"],
        ["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal",
         "--sup", "--resolution", "0.1", "--tol", "nan"],
        ["closed-form", "--family", "zkzk", "--k", "5.7"],
        ["solve", "--family", "zkzk-simple", "--k", "4", "--tol", "1e-3"],
        ["solve", "--family", "zkzk-simple", "--k", "4", "--tol", "inf"],
        ["sweep", "--family", "z2z3", "--resolution", "0.25", "--tol", "inf"],
        ["sweep", "--family", "z2z3", "--resolution", "3"],
        ["closed-form", "--family", "z2z3", "--p", "nan", "--q", "0.1"],
        ["closed-form", "--family", "z3z3-asym", "--p", "0.2", "--q", "nan"],
        ["solve", "--family", "z2z3", "--p", "0.5", "--q", "0.1", "--max-iter", "0"],
        # a writable dump path: a late rejection would leave estimates on stdout
        ["simulate", "--family", "hecke-simple", "--k", "3", "--steps", "10", "--reps", "2",
         "--dump-lengths", os.devnull, "--dump-reps", "0"],
        ["simulate", "--family", "hecke-simple", "--k", "3", "--steps", "10", "--reps", "2",
         "--dump-lengths", os.devnull, "--dump-reps", "-3"],
        # Z/100000 needs a table of 10^10 cells, past the group-table budget
        ["solve", "--family", "zkzk-simple", "--k", "100000"],
    ],
    ids=["missing-k", "quality-resolution-0", "sweep-resolution-0", "negative-seed", "tol-0",
         "tol-nan", "sweep-tol-0", "sweep-tol-nan", "quality-sup-tol-0", "quality-sup-tol-nan",
         "closed-form-fractional-k", "tol-1e-3", "tol-inf", "sweep-tol-inf", "sweep-resolution-3",
         "closed-form-z2z3-p-nan", "closed-form-z3z3-asym-q-nan", "max-iter-0", "dump-reps-0",
         "dump-reps-negative", "k-past-the-table-budget"],
)
def test_cli_invalid_input_exits_3_without_traceback(argv, capfd):
    assert_invalid_input(argv, capfd)


@pytest.mark.parametrize(
    "flags",
    [["--steps", "0"], ["--reps", "1"], ["--hitting", "0:1", "--horizon", "-3"],
     ["--prefix-len", "-2"], ["--hitting", "9:1"]],
    ids=["steps-0", "reps-1", "horizon-negative", "prefix-len-negative", "unknown-hitting-letter"],
)
def test_cli_simulate_rejects_bad_input_before_any_output(flags, capfd):
    assert_invalid_input(["simulate", "--family", "hecke-simple", "--k", "3", "--steps", "10",
                          "--reps", "4", *flags], capfd)


@pytest.mark.parametrize(
    "flags",
    [["--steps", "1000000000000", "--reps", "2"],
     ["--steps", "100000", "--reps", "2000", "--dump-lengths", os.devnull, "--dump-reps", "2000"],
     ["--steps", "10", "--reps", "2", "--hitting", "0:1", "--horizon", "1000000000"],
     ["--steps", "1", "--reps", "1000000000000"]],
    ids=["stack", "recorded-series", "hitting-horizon", "reps"],
)
def test_cli_simulate_rejects_oversized_runs_before_allocating(flags, capfd, monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("the walks were stepped")

    # every run, estimated or recorded, is stepped through _batch
    monkeypatch.setattr("freewalk.simulate._batch", no_walks)
    assert_invalid_input(["simulate", "--family", "hecke-simple", "--k", "3", *flags], capfd)


@pytest.mark.parametrize("family, k", [("zkzk", "1e300"), ("zkzk", "543"), ("hecke", "899")])
def test_cli_closed_form_rejects_k_past_the_float_recurrence(family, k, capfd):
    # k = 1e300 would run the recurrence 1e300 steps; from 543 and 899 it overflowed to NaN
    assert_invalid_input(["closed-form", "--family", family, "--k", k], capfd)


@pytest.mark.parametrize("k", ["0", "-4", "2"])
def test_cli_minimal_sweep_rejects_small_k_before_any_output(k, capfd):
    assert_invalid_input(["sweep", "--family", "quality-zkzk-minimal", "--k", k,
                          "--resolution", "0.25"], capfd)


def test_python_dash_m_freewalk_runs_the_cli():
    # exit codes across a real process boundary; most other cases run main in-process
    env = dict(os.environ, PYTHONPATH=str(Path(freewalk.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "freewalk", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = run("solve", "--family", "z2z3", "--p", "0.5", "--q", "0.1")
    assert proc.returncode == 0, proc.stderr
    assert "gamma = " in proc.stdout
    proc = run("solve", "--family", "zkzk-simple", "--k", "4", "--tol", "0")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid input:") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("target, delay", [("process", 0.0), ("group", 0.1)])
def test_ctrl_c_ends_a_run_with_status_130_one_line_and_no_child_left(target, delay):
    # SIGINT reaches a real verify run after its first line: to the process
    # alone at once, or, as a terminal's Ctrl-C does, to its whole process
    # group a little later, while criterion 12 steps its Monte Carlo blocks
    # in forked children.  The run is its own process group, so a child
    # left behind would still be in it once the run is waited for.
    env = dict(os.environ, PYTHONPATH=str(Path(freewalk.__file__).parents[1]), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "freewalk", "verify", "--criteria", "1,12"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        assert proc.stdout.readline().startswith("PASS criterion  1:")
        time.sleep(delay)
        (os.kill if target == "process" else os.killpg)(proc.pid, signal.SIGINT)
        status = proc.wait(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
        out, err = proc.communicate(timeout=60)
    assert status == 130
    assert err == "interrupted\n"
    assert "criterion 12" not in out


def assert_invalid_input(argv, capfd):
    """``main(argv)`` exits 3 with one ``invalid input:`` line and no other output.

    File-descriptor capture also sees writes that bypass ``sys.stdout`` and
    ``sys.stderr``.  A warning counts as output: a fresh interpreter would
    print it to stderr, and pytest would otherwise swallow it.  An exception
    that escapes ``main`` fails the test, as a traceback would.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv)
    captured = capfd.readouterr()
    assert status == 3
    assert "Traceback" not in captured.err
    assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []


_FAMILY = {"measure": {"family": "zkzk-simple", "k": 4}}
_LETTERS = {"factors": [{"cyclic": 2}, {"cyclic": 3}],
            "measure": {"letters": {"0:1": 0.5, "1:1": 0.25, "1:2": 0.25}}}


@pytest.mark.parametrize(
    "spec",
    [
        {"measure": {"family": "zkzk-simple", "k": 4.5}},
        {"measure": {"family": "zkzk-simple", "k": "4"}},
        {"measure": {"family": "extremal", "orders": [2, 3.5]}},
        {"measure": {"family": "extremal", "orders": 7}},
        {"measure": {"family": "z3z3-sym", "p": "0.2"}},
        {"measure": {"family": "z2z3", "p": 10**400, "q": 0.1}},
        {**_FAMILY, "max_iter": None},
        {**_LETTERS, "measure": {"letters": [1]}},
        {**_LETTERS, "factors": [{"table": 5}, {"cyclic": 3}]},
        {**_LETTERS, "factors": [{"cyclic": 2}, {"cyclic": 3.9}]},
        {**_FAMILY, "seed": 1.5},
        {"measure": {"family": "uniform-per-factor", "orders": [3, 3], "weights": "0.5"}},
        {**_LETTERS, "factors": [{"table": [[0, 1], [1, 1]]}, {"cyclic": 3}]},
    ],
    ids=["k-fractional", "k-string", "orders-fractional", "orders-not-a-list", "p-string",
         "p-beyond-float", "max-iter-null", "letters-not-a-map", "table-not-a-list",
         "cyclic-fractional", "seed-fractional", "weights-string", "table-not-a-group"],
)
def test_malformed_spec_exits_3_without_traceback(tmp_path, spec, capfd):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(spec))
    assert_invalid_input(["solve", "--spec", str(path)], capfd)


def test_spec_null_weights_select_equal_weights(tmp_path, capsys):
    outputs = []
    for extra in ({}, {"weights": None}):
        path = tmp_path / "walk.json"
        path.write_text(json.dumps(
            {"measure": {"family": "uniform-per-factor", "orders": [3, 3], **extra}}))
        assert main(["solve", "--spec", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_flags_keep_spec_fields_they_do_not_set(tmp_path, capsys):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"measure": {"family": "hecke-simple", "k": 3},
                                "max_iter": 5, "seed": 11}))
    # the spec's max_iter survives --tol, so the solver runs out of iterations
    assert main(["solve", "--spec", str(path), "--tol", "1e-12"]) == 4
    capsys.readouterr()
    runs = []
    for extra in ([], ["--seed", "11"]):
        assert main(["simulate", "--spec", str(path), "--tol", "1e-12",
                     "--steps", "50", "--reps", "4", *extra]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_cli_simulate_uses_spec_generators(tmp_path, capsys):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps({"measure": {"family": "zkzk-simple", "k": 4},
                                "generators": "minimal"}))
    assert main(["simulate", "--spec", str(path), "--steps", "200", "--reps", "10"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    spec = load_spec(str(path))
    lengths = letter_lengths(spec.product, minimal_generators(spec.product))
    est = estimate_drift(spec.product, spec.mu, steps=200, reps=10, seed=spec.seed,
                         lengths=lengths)
    assert rows[1][:2] == ["drift", repr(est.estimate)]


def test_cli_closed_form(capsys):
    assert main(["closed-form", "--family", "zkzk", "--k", "4"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - cf.drift_zkzk(4)) < 1e-15
    assert main(["closed-form", "--family", "z2z3"]) == 3  # missing parameters
    capsys.readouterr()
    # the largest k of each recurrence still prints
    for family, k, gamma in (("zkzk", cf.ZKZK_MAX_K, "0.33333333333333337"),
                             ("hecke", cf.HECKE_MAX_K, "0.22222222222222224")):
        assert main(["closed-form", "--family", family, "--k", str(k)]) == 0
        assert capsys.readouterr().out == gamma + "\n"


# each closed-form family's flags and its library call, made without the CLI's table
_CLOSED_FORM_CALLS = {
    "z2z3": (["--p", "0.3", "--q", "0.2"], lambda: cf.drift_z2z3(0.3, 0.2)),
    "z3z3-sym": (["--p", "0.2"], lambda: cf.drift_z3z3_sym(0.2)),
    "z3z3-asym": (["--p", "0.2", "--q", "0.3"], lambda: cf.drift_z3z3_asym(0.2, 0.3)),
    "zkzk": (["--k", "5"], lambda: cf.drift_zkzk(5)),
    "hecke": (["--k", "5"], lambda: cf.drift_hecke(5)),
    "uniform-pair": (["--p", "0.3", "--k1", "2", "--k2", "3"],
                     lambda: cf.drift_uniform_pair(0.3, 2, 3)),
}


@pytest.mark.parametrize("family", sorted(_CLOSED_FORMS))
def test_cli_closed_form_prints_the_library_value_of_every_family(family, capsys):
    assert set(_CLOSED_FORM_CALLS) == set(_CLOSED_FORMS)
    flags, call = _CLOSED_FORM_CALLS[family]
    assert main(["closed-form", "--family", family, *flags]) == 0
    captured = capsys.readouterr()
    assert captured.out == _f17(call()) + "\n"
    assert captured.err == ""


def test_cli_closed_form_batch(tmp_path, capsys):
    path = tmp_path / "params.csv"
    path.write_text("p,q\n0.3333333333333333,0.3333333333333333\n0.5,0.1\n")
    assert main(["closed-form", "--family", "z2z3", "--batch", str(path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["p", "q", "gamma"]
    assert abs(float(rows[1][2]) - 2 / 15) < 1e-12


@pytest.mark.parametrize(
    "family, rows, error",
    [("zkzk", "k\n4\n5.5\n", "k must be an integer, got 5.5"),
     ("z2z3", "p,q\n0.5,0.1\nnan,0.1\n", "need p, q >= 0 and p + q < 1")],
    ids=["fractional-k", "nan-p"],
)
def test_cli_closed_form_batch_rejects_bad_row(tmp_path, capsys, family, rows, error):
    path = tmp_path / "params.csv"
    path.write_text(rows)
    assert main(["closed-form", "--family", family, "--batch", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {error}\n"


def test_readme_quick_start_runs_and_names_the_package_namespace(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "0.30901699437494734"
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "freewalk"
                for alias in node.names]
    assert sorted(freewalk.__all__) == sorted(imported)


def test_cli_sweep_csv_and_byte_stability(capsys):
    args = ["sweep", "--family", "z3z3-sym", "--resolution", "0.1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = list(csv.reader(io.StringIO(first)))
    assert rows[0] == ["p", "gamma", "entropy", "volume", "quality", "error"]
    for row in rows[1:]:
        assert row[5] == ""
        p = float(row[0])
        assert abs(float(row[1]) - cf.drift_z3z3_sym(p)) < 1e-10
        assert float(row[4]) <= 1 + 1e-9


def test_cli_sweep_out_writes_the_bytes_it_prints(tmp_path, capsys):
    args = ["sweep", "--family", "z3z3-asym", "--resolution", "0.2"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "surface.csv"
    assert main([*args, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode("utf-8")


def test_cli_sweep_unwritable_out_exits_5_with_empty_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "surface.csv"
    assert main(["sweep", "--family", "z3z3-sym", "--resolution", "0.1", "--out", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o failure:") and captured.err.count("\n") == 1
    assert not path.parent.exists()


# Rows of every sweep family, recorded before the sweeps called the walkspec
# builders and metrics_report; the CSV must stay byte for byte the same.
_SWEEP_PINS = [
    ("z2z3", ["--resolution", "0.25"], (
        "p,q,gamma,entropy,volume,quality,error\n"
        "0.0,0.0,,,,,NonGeneratingSetError\n"
        "0.0,0.25,0.11957904592940881,0.04045447345796774,0.34657359027997275,0.9761487522494198,\n"
        "0.0,0.5,0.16331581735520462,0.05598061412645818,0.34657359027997275,0.989040200686796,\n"
        "0.0,0.75,0.12435482902954745,0.042977520924834,0.34657359027997275,0.9972022283626357,\n"
        "0.0,1.0,,,,,NonGeneratingSetError\n"
        "0.25,0.0,0.11957904592940871,0.04045447345796775,0.34657359027997275,0.976148752249421,\n"
        "0.25,0.25,0.14285714285714282,0.049510512897138995,0.34657359027997275,1.0000000000000009,\n"
        "0.25,0.5,0.11656958598256727,0.040381746772572356,0.34657359027997275,0.9995496736161774,\n"
        "0.25,0.75,,,,,NonGeneratingSetError\n"
        "0.5,0.0,0.16331581735520462,0.0559806141264582,0.34657359027997275,0.9890402006867963,\n"
        "0.5,0.25,0.11656958598256749,0.04038174677257242,0.34657359027997275,0.9995496736161771,\n"
        "0.5,0.5,,,,,NonGeneratingSetError\n"
        "0.75,0.0,0.12435482902954745,0.042977520924834,0.34657359027997275,0.9972022283626357,\n"
        "0.75,0.25,,,,,NonGeneratingSetError\n"
        "1.0,0.0,,,,,NonGeneratingSetError\n"
    )),
    ("z3z3-sym", ["--resolution", "0.1"], (
        "p,gamma,entropy,volume,quality,error\n"
        "0.1,0.2720153254455276,0.18560629238146045,0.6931471805599453,0.9844051144469171,\n"
        "0.2,0.2524937810560445,0.17470117317997366,0.6931471805599453,0.9982048473831049,\n"
        "0.3,0.2524937810560445,0.17470117317997366,0.6931471805599453,0.9982048473831049,\n"
        "0.4,0.27201532544552753,0.18560629238146048,0.6931471805599453,0.9844051144469175,\n"
    )),
    ("z3z3-asym", ["--resolution", "0.2"], (
        "p,q,gamma,entropy,volume,quality,error\n"
        "0.2,0.2,0.24000000000000002,0.1663553233343869,0.6931471805599453,1.0000000000000002,\n"
        "0.2,0.4,0.2427907914667538,0.16803213372808115,0.6931471805599453,0.9984691947128033,\n"
        "0.2,0.6,0.16226248464771714,0.11238274805241102,0.6931471805599453,0.9992083730795271,\n"
        "0.4,0.2,0.24279079146675375,0.16803213372808118,0.6931471805599453,0.9984691947128036,\n"
        "0.4,0.4,0.15999999999999992,0.11090354888959122,0.6931471805599453,1.0000000000000002,\n"
        "0.6,0.2,0.16226248464771714,0.11238274805241102,0.6931471805599453,0.9992083730795271,\n"
    )),
    ("zkzk", ["--k-min", "3", "--k-max", "5"], (
        "k,gamma,entropy,volume,quality,error\n"
        "3,0.25000000000000006,0.1732867951399863,0.6931471805599453,0.9999999999999997,\n"
        "4,0.30901699437494734,0.33250919322200173,1.09861228866811,0.9794377538908776,\n"
        "5,0.32569390943299864,0.42546859820001887,1.3862943611198906,0.9423287001985231,\n"
    )),
    ("hecke", ["--k-min", "3", "--k-max", "5"], (
        "k,gamma,entropy,volume,quality,error\n"
        "3,0.13333333333333322,0.046209812037329635,0.34657359027997275,0.9999999999999994,\n"
        "4,0.18286125678495438,0.10007855680354995,0.5493061443340549,0.9963338297944865,\n"
        "5,0.20386840968093514,0.13946455960710658,0.6931471805599455,0.9869348019138033,\n"
    )),
    ("quality-zkzk-minimal", ["--k", "5", "--resolution", "0.1"], (
        "p,gamma_S,entropy,volume_S,quality,error\n"
        "0.1,0.2798646404188311,0.2739823313971459,1.0050525387423812,0.9740601161525023,\n"
        "0.2,0.40866093722803665,0.40875070861650775,1.0050525387423812,0.995191428806319,\n"
        "0.3,0.40866093722803665,0.40875070861650775,1.0050525387423812,0.995191428806319,\n"
        "0.4,0.279864640418831,0.2739823313971459,1.0050525387423812,0.9740601161525024,\n"
    )),
]


@pytest.mark.parametrize("family, flags, expected", _SWEEP_PINS, ids=[p[0] for p in _SWEEP_PINS])
def test_cli_sweep_rows_are_pinned(capsys, family, flags, expected):
    assert main(["sweep", "--family", family, *flags]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("resolution", ["0.5", "0.2"])
def test_cli_sweep_records_failures_and_continues(capsys, resolution):
    # edge rows put zero mass on a (factor Z/2) or on b and b^2 (factor Z/3)
    assert main(["sweep", "--family", "z2z3", "--resolution", resolution]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    tagged = [row for row in rows[1:] if row[6]]
    assert tagged and all(row[6] == "NonGeneratingSetError" for row in tagged)
    clean = [row for row in rows[1:] if not row[6]]
    assert clean


def test_cli_simulate(capsys):
    assert main([
        "simulate", "--family", "hecke-simple", "--k", "3",
        "--steps", "400", "--reps", "40", "--prefix-len", "1",
        "--hitting", "1:1", "--horizon", "200", "--seed", "99",
    ]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "metric"
    metrics = {row[0] for row in rows[1:]}
    assert "drift" in metrics and "hitting(1:1)" in metrics
    assert any(m.startswith("prefix(") for m in metrics)


@pytest.mark.parametrize(
    "walk, digest",
    [
        (["--family", "hecke-simple", "--k", "3"],
         "ec74615d90cde76bd4ee2a264628306702180d12d1076d0ca3b2f629eab5bbd1"),
        (["--family", "zkzk-simple", "--k", "4", "--gens", "minimal"],
         "7b0132a714e6b28e8017906496ad3f99d626c727f82d6ed92a38099a1f34bcc0"),
    ],
    ids=["natural", "minimal"],
)
def test_cli_simulate_dump_lengths_is_pinned(tmp_path, capsys, walk, digest):
    # 2,100 steps cross one chunk of drawn letters; the default --dump-reps
    # (10) is cut to the 3 replications
    path = tmp_path / "lengths.csv"
    assert main(["simulate", *walk, "--steps", "2100", "--reps", "3",
                 "--dump-lengths", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert data.count(b"\n") == 1 + 3 * 2101
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_simulate_unwritable_dump_exits_5_before_any_output(tmp_path, capsys):
    path = tmp_path / "missing" / "lengths.csv"
    assert main(["simulate", "--family", "hecke-simple", "--k", "3", "--steps", "10",
                 "--reps", "2", "--dump-lengths", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o failure:") and captured.err.count("\n") == 1


def test_cli_cylinder(capsys):
    assert main([
        "cylinder", "--family", "zkzk-simple", "--k", "4",
        "--word", "0:1.1:1", "--word", "0:1",
    ]) == 0
    out = capsys.readouterr().out
    assert "cylinder(0:1.1:1) = 0.0729490168751577" in out
    # nu(0:1) = r(a) = (3 - sqrt 5) / 4 on Z/4 * Z/4, correctly rounded; the
    # float expression (3 - math.sqrt(5)) / 4 is one ulp below it
    value = float(re.search(r"cylinder\(0:1\) = (\S+)", out).group(1))
    assert value == float((3 - Decimal(5).sqrt()) / 4)
    assert main(["cylinder", "--family", "zkzk-simple", "--k", "4", "--word", "0:1.0:2"]) == 3


def test_kept_parser_carries_no_words_between_calls(capsys):
    kept = build_parser()
    assert build_parser() is kept
    build_parser.cache_clear()  # as perfbench's clear_caches does at each pass
    assert build_parser() is not kept
    cylinder = ["cylinder", "--family", "zkzk-simple", "--k", "4", "--word", "0:1"]
    assert main([*cylinder, "--word", "1:1"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in first] == ["cylinder(0:1)", "cylinder(1:1)"]
    assert main(cylinder) == 0
    assert capsys.readouterr().out.splitlines() == first[:1]


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "solve"])
def test_kept_parser_prints_the_same_help_twice(argv, capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] and texts[0] == texts[1]


def test_kept_parser_solves_after_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["solve", "--family", "zkzk-simple", "--k", "four"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert main(["solve", "--family", "zkzk-simple", "--k", "4"]) == 0
    assert "gamma = 0.30901699437494734" in capsys.readouterr().out


def test_cli_quality(capsys):
    assert main(["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal"]) == 0
    out = capsys.readouterr().out
    value = float(re.search(r"quality = (\S+)", out).group(1))
    assert abs(value - 0.98768601901353) <= 5e-15
    assert main([
        "quality", "--family", "zkzk-simple", "--k", "4",
        "--gens", "minimal", "--sup", "--resolution", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "sup quality" in out


@pytest.mark.parametrize("source", ["flag", "spec"])
def test_cli_solve_reports_quality_in_the_walks_generating_set(source, tmp_path, capsys):
    # the minimal set, from --gens or from the spec's "generators"; the
    # natural lengths give 0.97943775389087762 instead
    walk = ["--family", "zkzk-simple", "--k", "4", "--gens", "minimal"]
    if source == "spec":
        path = tmp_path / "walk.json"
        path.write_text(json.dumps({"measure": {"family": "zkzk-simple", "k": 4},
                                    "generators": "minimal"}))
        walk = ["--spec", str(path)]
    assert main(["solve", *walk]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("quality = ")]
    assert main(["quality", *walk]) == 0
    assert capsys.readouterr().out == f"{line}\n" == "quality = 0.98768601901352926\n"


def test_cli_verify_list_and_single(capsys):
    assert main(["verify", "--list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "criterion  1: drift table Z/k * Z/k",
        "criterion  2: drift table Hecke Z/2 * Z/k",
        "criterion  3: Z/2 * Z/4 root vector",
        "criterion  4: recurrence and root identities",
        "criterion  5: Z/4 * Z/4 root-vector normalization",
        "criterion  6: closed-form / solver agreement",
        "criterion  7: Z/2 * Z/3 maximum drift",
        "criterion  8: structural identities on solved instances",
        "criterion  9: extremal measures",
        "criterion 10: minimal-generator quality constants",
        "criterion 11: volume and sphere growth",
        "criterion 12: Monte Carlo concordance",
        "criterion 13: exact-convolution trend",
    ]
    assert main(["verify", "--criteria", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion  5" in out
    assert "NOTE" in out


def test_verify_negative_control(monkeypatch):
    # corrupted F_4 evaluations must break criterion 4
    real = cf.eval_F

    def corrupted(n, x):
        value = real(n, x)
        return value + 1e-3 if n == 4 else value

    monkeypatch.setattr(cf, "eval_F", corrupted)
    result = verify.run_criterion(4)
    assert not result.passed


def test_verify_negative_control_on_certified_enclosures(monkeypatch):
    # the k = 20 enclosure computed from the F_19 signs equals the k = 19 one,
    # so only the certified monotonicity line may fail
    real = cf._F_sign
    monkeypatch.setattr(cf, "_F_sign", lambda k, x: real(19 if k == 20 else k, x))
    result = verify.run_criterion(4)
    assert not result.passed
    bad = [line for line in result.details if line.startswith("BAD")]
    assert len(bad) == 1
    assert bad[0].startswith("BAD gamma_k strictly increasing, < 1/3 (k <= 64, certified):")


def test_cli_verify_times_each_selected_criterion_once(capsys):
    assert main(["verify", "--criteria", "5,3,5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    status = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert [line.split(":")[0] for line in status] == ["PASS criterion  5", "PASS criterion  3"]
    assert all(re.search(r": [^()]+ \(\d+\.\d\d s\)$", line) for line in status)
    assert lines[-1] == "2 criteria, 0 failed"
    # an unknown number is rejected before any criterion runs
    assert main(["verify", "--criteria", "5,99"]) == 3
    assert capsys.readouterr().out == ""


def test_cli_verify_exit_code_on_failure(capsys, monkeypatch):
    real = cf.eval_F

    def corrupted(n, x):
        value = real(n, x)
        return value + 1e-3 if n == 4 else value

    monkeypatch.setattr(cf, "eval_F", corrupted)
    assert main(["verify", "--criteria", "4"]) == 1
    assert "FAIL criterion  4" in capsys.readouterr().out


def test_every_traced_benchmark_target_resolves():
    # perfbench/tracer.py names the functions it wraps as "module:function";
    # a deleted or renamed one would otherwise break only the traced run.
    source = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "TRACED")
    targets = [target for group in traced.values() for target in group]
    assert len(targets) > 30
    for target in targets:
        module, name = target.split(":")
        assert callable(getattr(importlib.import_module(module), name)), target
