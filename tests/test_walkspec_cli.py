import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freewalk
from freewalk import closedform as cf
from freewalk import verify
from freewalk.cli import main
from freewalk.groups import Letter, free_product_of_cyclics, letter_lengths
from freewalk.simulate import estimate_drift
from freewalk.walkspec import (
    build_family,
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
    ],
    ids=["missing-k", "quality-resolution-0", "sweep-resolution-0", "negative-seed", "tol-0",
         "tol-nan"],
)
def test_cli_invalid_input_exits_3_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(freewalk.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "freewalk.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid input:") and proc.stderr.count("\n") == 1


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


def test_cli_closed_form_batch(tmp_path, capsys):
    path = tmp_path / "params.csv"
    path.write_text("p,q\n0.3333333333333333,0.3333333333333333\n0.5,0.1\n")
    assert main(["closed-form", "--family", "z2z3", "--batch", str(path)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["p", "q", "gamma"]
    assert abs(float(rows[1][2]) - 2 / 15) < 1e-12


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


def test_cli_cylinder(capsys):
    assert main([
        "cylinder", "--family", "zkzk-simple", "--k", "4",
        "--word", "0:1.1:1", "--word", "0:1",
    ]) == 0
    out = capsys.readouterr().out
    assert "cylinder(0:1.1:1) = 0.0729490168751577" in out
    assert "cylinder(0:1) = 0.19098300562505252" in out
    assert main(["cylinder", "--family", "zkzk-simple", "--k", "4", "--word", "0:1.0:2"]) == 3


def test_env_tolerance_override(monkeypatch):
    from freewalk.walkspec import default_tolerance

    monkeypatch.setenv("FREEWALK_TOL", "1e-6")
    assert default_tolerance() == 1e-6
    monkeypatch.delenv("FREEWALK_TOL")
    assert default_tolerance() == 1e-13


def test_cli_quality(capsys):
    assert main(["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal"]) == 0
    out = capsys.readouterr().out
    assert "quality = 0.98768601901353" in out
    assert main([
        "quality", "--family", "zkzk-simple", "--k", "4",
        "--gens", "minimal", "--sup", "--resolution", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "sup quality" in out


def test_cli_verify_list_and_single(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "criterion 13" in out
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


def test_cli_verify_exit_code_on_failure(capsys, monkeypatch):
    real = cf.eval_F

    def corrupted(n, x):
        value = real(n, x)
        return value + 1e-3 if n == 4 else value

    monkeypatch.setattr(cf, "eval_F", corrupted)
    assert main(["verify", "--criteria", "4"]) == 1
    assert "FAIL criterion  4" in capsys.readouterr().out
