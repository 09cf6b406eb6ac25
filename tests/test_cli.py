import json
import os
import subprocess
import sys

import pytest

import lipcheck
from lipcheck.cli import main, sample_analytic
from lipcheck.metric import PreconditionError


def run(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = main(list(argv) + ["--out", str(path)])
    return code, path


def read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_catalog_pass(tmp_path):
    code, path = run(tmp_path, "validate", "--space", "dmqr41", "--n", "8")
    assert code == 0
    blob = read(path)
    assert blob["passed"] is True
    assert blob["n_points"] == 8
    assert blob["seed"] == 20260815


def test_validate_space_file(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({
        "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    }))
    code, path = run(tmp_path, "validate", "--space", str(space_file))
    assert code == 0
    assert read(path)["n_points"] == 3


def test_norm_command(tmp_path):
    code, path = run(
        tmp_path, "norm", "--space", "discrete", "--n", "4",
        "--values", '["0", "1", "-1", "1/2"]',
    )
    assert code == 0
    blob = read(path)
    assert blob["lip_norm"] == "2"
    assert [1, 2] in blob["attaining_pairs"] or [2, 1] in blob["attaining_pairs"]


def test_free_norm_strictly_below_two(tmp_path):
    element = {"weights": {"0": "2/3", "1": "-2/3", "2": "4/5", "3": "-4/5"}}
    code, path = run(
        tmp_path, "free-norm", "--space", "dmqr41", "--n", "6",
        "--element", json.dumps(element),
    )
    assert code == 0
    blob = read(path)
    assert blob["value"] == "17/9"
    assert blob["flow_value"] == "17/9"
    assert blob["routes_agree"] is True
    assert blob["witness_achieves"] is True


def test_check_pass_and_fail(tmp_path):
    code, path = run(tmp_path, "check", "--theorem", "thm43",
                     "--model", "dmqr41", "--n", "20")
    assert code == 0
    assert read(path)["ok"] is True

    code, path = run(tmp_path, "check", "--theorem", "thm37",
                     "--model", "example48", "--n", "10", name="fail.json")
    assert code == 1
    blob = read(path)
    assert blob["ok"] is False
    # The failing clause carries an exact rational witness.
    assert blob["clause"]
    assert blob["witness_values"]


def test_verify_prop23_witnesses_at_base(tmp_path):
    code, path = run(tmp_path, "verify", "--theorem", "prop23",
                     "--n", "16", "--support", "4")
    assert code == 0
    blob = read(path)
    assert blob["exact_pass"] is True
    assert blob["expectation_pass"] is True
    assert blob["coeff_count"] == 3 ** 4 + 100
    assert all(s["point"] == 0 for s in blob["witness_samples"])
    assert all(s["point_defect"] == "0" for s in blob["witness_samples"])


def test_pipeline_routes(tmp_path):
    code, path = run(tmp_path, "pipeline", "--model", "dmqr41", "--n", "12")
    assert code == 0
    blob = read(path)
    assert blob["case"] == "I-(i)"
    assert blob["expectation_pass"] is True

    code, path = run(tmp_path, "pipeline", "--model", "power_line",
                     "--param", "ratio=4", "--n", "12", name="p2.json")
    assert code == 0
    assert read(path)["case"] == "II"


def test_exit_codes_usage_and_model_errors(tmp_path):
    # Missing --n for a catalog space is a config error.
    assert main(["validate", "--space", "dmqr41",
                 "--out", str(tmp_path / "x.json")]) == 2
    # Unknown subcommand and bad flags surface argparse's usage exit.
    assert main(["frobnicate"]) == 2
    # Bad JSON in --values is a config error.
    assert main(["norm", "--space", "discrete", "--n", "3",
                 "--values", "not json",
                 "--out", str(tmp_path / "y.json")]) == 2
    # Models without the needed tail data are definition errors.
    assert main(["check", "--theorem", "thm43", "--model", "dmqr44",
                 "--n", "10", "--out", str(tmp_path / "z.json")]) == 3
    assert main(["pipeline", "--model", "power_line", "--param", "ratio=1",
                 "--n", "8", "--out", str(tmp_path / "w.json")]) == 3


@pytest.mark.parametrize("argv, space_json", [
    (["free-norm", "--space", "discrete", "--n", "4",
      "--element", '{"weights": [1]}'], None),
    (["validate"], {"dist": [1, 2]}),
    (["validate"], {"dist": [["0", "1"], ["1", "0"]], "points": 5}),
    (["validate"], {"dist": [["0", 1], ["1", "0"]]}),
    (["free-norm", "--n", "2", "--element", '{"weights": {"1": 1}}'],
     {"dist": [["0", "1"], ["1", "0"]]}),
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, space_json):
    """Bad shapes in space files and elements exit 2 with one error line,
    never with a traceback (exit 1 is reserved for failed checks)."""
    if space_json is not None:
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space_json))
        argv = argv + ["--space", str(space_file)]
    code, path = run(tmp_path, *argv)
    assert code == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_main_back_to_back_matches_fresh_processes(tmp_path):
    """main reuses one parser per process; back-to-back calls with
    different subcommands write the bytes a fresh process writes."""
    element = json.dumps({"weights": {"1": "1/2", "3": "-2"}})
    jobs = [
        ["free-norm", "--space", "dmqr41", "--n", "5", "--element", element],
        ["validate", "--space", "example48", "--n", "6", "--format", "markdown"],
        ["norm", "--space", "discrete", "--n", "3", "--values", '["0", "1", "-1"]'],
        ["check", "--theorem", "thm43", "--model", "dmqr41", "--n", "8"],
        ["free-norm", "--space", "discrete", "--n", "4", "--element", element,
         "--seed", "7"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lipcheck.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for k, argv in enumerate(jobs):
        assert main(argv + ["--out", str(tmp_path / f"in{k}")]) == 0
        assert main(["frobnicate"]) == 2
    for k, argv in enumerate(jobs):
        subprocess.run(
            [sys.executable, "-m", "lipcheck.cli", *argv,
             "--out", str(tmp_path / f"fresh{k}")],
            env=env, check=True, capture_output=True,
        )
        assert (tmp_path / f"in{k}").read_bytes() == \
            (tmp_path / f"fresh{k}").read_bytes()


def test_report_bytes_deterministic(tmp_path):
    code, path = run(tmp_path, "verify", "--theorem", "thm34", "--n", "10",
                     name="a.json")
    assert code == 0
    code, path2 = run(tmp_path, "verify", "--theorem", "thm34", "--n", "10",
                      name="b.json")
    assert code == 0
    assert path.read_bytes() == path2.read_bytes()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LIPCHECK_OUT_DIR", str(tmp_path))
    assert main(["validate", "--space", "discrete", "--n", "4"]) == 0
    assert (tmp_path / "lipcheck-validate.json").exists()


def test_markdown_format(tmp_path):
    path = tmp_path / "v.md"
    assert main(["validate", "--space", "discrete", "--n", "4",
                 "--format", "markdown", "--out", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# lipcheck-validate")
    assert "- passed: True" in text


def test_sample_analytic_report():
    rep = sample_analytic("x2-over-absx-plus-2", 256, 10 ** 6)
    assert rep["exact"] is False
    assert rep["arithmetic"] == "float64"
    assert rep["max_grid_slope"] <= 1.0 + 1e-12
    assert abs(rep["sample_at_horizon"] - 1.0) < 1e-5
    assert rep["passed"] is True
    with pytest.raises(PreconditionError):
        sample_analytic("unknown-function", 10, 10)
    with pytest.raises(PreconditionError):
        sample_analytic("x2-over-absx-plus-2", 0, 10)


def test_sample_analytic_cli(tmp_path):
    code, path = run(tmp_path, "sample-analytic", "--resolution", "128")
    assert code == 0
    blob = read(path)
    assert blob["exact"] is False
    assert blob["passed"] is True


def test_report_command(tmp_path):
    path = tmp_path / "acc.json"
    assert main(["report", "--out", str(path)]) == 0
    blob = read(path)
    assert blob["passed"] is True
    assert [row["id"] for row in blob["criteria"]] == list(range(1, 12))
    md = (tmp_path / "acc.md").read_text()
    assert md.count("| pass |") == 11
