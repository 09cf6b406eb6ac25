import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import symtable
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lipcheck
from lipcheck import cli, freespace, lipfun, metric
from lipcheck.cli import main, sample_analytic
from lipcheck.metric import LipcheckError, PreconditionError
from lipcheck.rational import format_rat, parse_rat, rat


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


@pytest.mark.parametrize("space", ["prop24", "file"])
def test_validate_checks_the_axioms_once(tmp_path, count_calls, space):
    """The report records the check made when the space is loaded; the
    command does not validate the space a second time."""
    argv = ["validate", "--space", space, "--n", "12"]
    if space == "file":
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps({
            "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        }))
        argv = ["validate", "--space", str(space_file)]
    calls = count_calls(metric.validate)
    code, path = run(tmp_path, *argv)
    assert code == 0
    assert len(calls) == 1
    blob = read(path)
    assert blob["passed"] is True and blob["violations"] == []


def test_validate_prop24_at_the_size_cap(tmp_path):
    """The largest truncation ``--n`` admits is validated in seconds even
    for prop24, whose distances have denominators up to 2**(127**2)."""
    code, path = run(tmp_path, "validate", "--space", "prop24", "--n", str(cli.MAX_N))
    assert code == 0
    blob = read(path)
    assert blob["passed"] is True and blob["violations"] == []
    assert blob["n_points"] == cli.MAX_N


def test_norm_past_the_int_digit_limit(tmp_path):
    """prop24 at N = 121 has a norm whose denominator runs past Python's
    4300-digit int/str limit; the report still carries it exactly."""
    n = 121
    values = ["0"] + ["1"] * (n - 1)
    code, path = run(tmp_path, "norm", "--space", "prop24", "--n", str(n),
                     "--values", json.dumps(values))
    assert code == 0
    text = read(path)["lip_norm"]
    assert len(text) > 4300
    space = metric.truncate(metric.catalog("prop24"), n)
    assert parse_rat(text) == lipfun.lip_norm(lipfun.lipfn(space, values))


def test_validate_space_file_breaking_an_axiom_is_a_model_error(tmp_path, capsys):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({
        "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
    }))
    code, path = run(tmp_path, "validate", "--space", str(space_file))
    assert code == 3
    assert not path.exists()
    assert capsys.readouterr().err == (
        "model error: space JSON violates triangle at indices (0, 1, 2)\n"
    )


def test_space_file_past_the_size_cap_is_refused_before_its_entries(tmp_path, capsys):
    """A --space file holds at most MAX_N rows. A longer one exits 2 before
    any entry is parsed, so its junk entries never surface; the library
    loader keeps no cap and reaches them."""
    blob = {"dist": [["junk"]] * (cli.MAX_N + 1)}
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(blob))
    code, path = run(tmp_path, "validate", "--space", str(space_file))
    assert code == 2
    assert not path.exists()
    assert capsys.readouterr().err == (
        f"error: space file has {cli.MAX_N + 1} rows; at most {cli.MAX_N} are allowed\n"
    )
    with pytest.raises(metric.StructureError, match="canonical"):
        metric.space_from_json(blob)


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm51", "--param", "levels=20000"],
    ["validate", "--space", "prop53", "--n", "8", "--param", "levels=20000"],
    ["validate", "--space", "thm51star", "--n", "8", "--param", "levels=65"],
])
def test_levels_past_the_cap_are_a_model_error(tmp_path, capsys, argv):
    code, path = run(tmp_path, *argv)
    assert code == 3
    assert not path.exists()
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "1 <= levels <= 64" in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--theorem", "thm51", "--param", "levels=27/10"],
     "thm51star needs an integer levels, got 27/10"),
    (["validate", "--space", "thm57", "--n", "20", "--param", "levels=7/2"],
     "thm57 needs an integer levels, got 7/2"),
    (["validate", "--space", "thm57", "--n", "20", "--param", "groups=5/2"],
     "thm57 needs an integer groups, got 5/2"),
    (["check", "--theorem", "thm34", "--model", "prop53", "--n", "8", "--param", "levels=3/2"],
     "prop53 needs an integer levels, got 3/2"),
])
def test_non_integral_integer_parameters_are_a_model_error(tmp_path, capsys, argv, message):
    """A non-integral levels or groups exits 3 naming the value; it was
    truncated to an int before (levels=27/10 built the levels=2 model)."""
    code, path = run(tmp_path, *argv)
    assert code == 3
    assert not path.exists()
    assert capsys.readouterr().err == f"model error: {message}\n"


def test_norm_command(tmp_path):
    code, path = run(
        tmp_path, "norm", "--space", "discrete", "--n", "4",
        "--values", '["0", "1", "-1", "1/2"]',
    )
    assert code == 0
    blob = read(path)
    assert blob["lip_norm"] == "2"
    assert [1, 2] in blob["attaining_pairs"] or [2, 1] in blob["attaining_pairs"]


def test_norm_scans_the_pairs_once(tmp_path, count_calls):
    """A norm job reads the norm off the attaining pairs of its one
    ``strong_pairs`` scan; it makes no separate ``lip_norm`` scan."""
    norms = count_calls(lipfun.lip_norm)
    pair_scans = count_calls(lipfun.strong_pairs)
    code, path = run(
        tmp_path, "norm", "--space", "example33", "--n", "5",
        "--values", '["0", "1/2", "-1/3", "1", "0"]',
    )
    assert code == 0
    assert (len(norms), len(pair_scans)) == (0, 1)
    blob = read(path)
    assert blob["lip_norm"] == "1"
    assert blob["attaining_pairs"] == [[2, 3]]
    code, path = run(tmp_path, "norm", "--space", "discrete", "--n", "3",
                     "--values", '["0", "0", "0"]', name="zero.json")
    assert code == 0
    assert read(path)["lip_norm"] == "0" and read(path)["attaining_pairs"] == []


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


def test_free_norm_runs_one_transport(tmp_path, count_calls):
    """One free-norm job is one transport; the report's flow value and
    witness norm come from that solve and its certificate."""
    calls = count_calls(freespace._transport)
    element = {"weights": {"1": "1", "3": "-2/3", "4": "1/2"}}
    code, path = run(tmp_path, "free-norm", "--space", "dmqr41", "--n", "6",
                     "--element", json.dumps(element))
    assert code == 0
    assert len(calls) == 1
    blob = read(path)
    assert blob["flow_value"] == blob["value"]
    assert blob["witness_lip_norm"] == "1"
    assert blob["routes_agree"] is blob["witness_achieves"] is blob["passed"] is True


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


@pytest.mark.parametrize("argv, n", [
    (["--theorem", "thm45", "--n", "5"], 5),
    (["--theorem", "thm43", "--n", "3"], 3),
    (["--theorem", "thm46", "--n", "4"], 4),
    (["--theorem", "thm57", "--param", "groups=1"], 9),
])
def test_verify_refuses_a_truncation_with_no_family_member(tmp_path, capsys, argv, n):
    """Too short a truncation builds no member: the run exits 2 naming the
    theorem and N, writes no report and prints no traceback."""
    code, path = run(tmp_path, "verify", *argv)
    err = capsys.readouterr().err
    assert code == 2 and not path.exists()
    assert err == f"error: {argv[1]} has no family member at N = {n}: nothing to verify\n"


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
    assert main(["check", "--theorem", "thm46", "--model", "discrete",
                 "--n", "8", "--out", str(tmp_path / "v.json")]) == 3
    assert main(["pipeline", "--model", "power_line", "--param", "ratio=1",
                 "--n", "8", "--out", str(tmp_path / "w.json")]) == 3
    # Unknown --param keys, including the builders' own argument names.
    assert main(["validate", "--space", "power_line", "--n", "4", "--param", "zz=3",
                 "--out", str(tmp_path / "u.json")]) == 3
    assert main(["validate", "--space", "dmqr41", "--n", "4", "--param", "name=3",
                 "--out", str(tmp_path / "t.json")]) == 3


@pytest.mark.parametrize("argv, space_json", [
    (["free-norm", "--space", "discrete", "--n", "4",
      "--element", '{"weights": [1]}'], None),
    (["validate"], {"dist": [1, 2]}),
    (["validate"], {"dist": [["0", "1"], ["1", "0"]], "points": 5}),
    (["validate"], {"dist": [["0", 1], ["1", "0"]]}),
    (["free-norm", "--n", "2", "--element", '{"weights": {"1": 1}}'],
     {"dist": [["0", "1"], ["1", "0"]]}),
    (["norm", "--space", "discrete", "--n", "3", "--values", "5"], None),
    (["norm", "--space", "discrete", "--n", "3", "--values", "null"], None),
    (["norm", "--space", "discrete", "--n", "3", "--values", '[["1"], "0", "0"]'], None),
    (["norm", "--space", "discrete", "--n", "3", "--values", "[true, 0, 0]"], None),
    (["norm", "--space", "discrete", "--n", "3", "--values", "[0.5, 0, 0]"], None),
    (["validate"], {"dist": [["0", "1"], ["1", "0"]], "name": ["a"]}),
    (["validate"], {"dist": []}),
    (["norm", "--values", "[]"], {"dist": []}),
    (["free-norm", "--element", '{"weights": {}}'], {"dist": []}),
    (["free-norm", "--space", "discrete", "--n", "3", "--element",
      '{"weights": {"1": "1/2", "01": "1"}}'], None),
    (["free-norm", "--space", "discrete", "--n", "3", "--element", '{"weights": {" 1": "1"}}'], None),
    (["free-norm", "--space", "discrete", "--n", "3", "--element", '{"weights": {"+1": "1"}}'], None),
    (["free-norm", "--space", "discrete", "--n", "12", "--element", '{"weights": {"1_0": "1"}}'],
     None),
    (["verify", "--theorem", "thm34", "--n", "0"], None),
    (["verify", "--theorem", "thm34", "--param", "c=3", "--support", "1",
      "--rand-count", "1"], None),
    (["verify", "--theorem", "thm34", "--param", "N=3"], None),
    (["validate", "--space", "discrete", "--n", str(cli.MAX_N + 1)], None),
    (["verify", "--theorem", "thm34", "--n", str(cli.MAX_N + 1)], None),
    (["verify", "--theorem", "thm51", "--param", "levels=7"], None),
    (["verify", "--theorem", "prop23", "--n", "128", "--support", "40"], None),
    (["verify", "--theorem", "prop23", "--support", "-1"], None),
    (["verify", "--theorem", "prop23", "--rand-count", "-1"], None),
    (["verify", "--theorem", "prop23", "--rand-count", str(cli.MAX_RAND_COUNT + 1)], None),
    (["sample-analytic", "--span", "0"], None),
    (["sample-analytic", "--span", "-5"], None),
    (["sample-analytic", "--span", "nan"], None),
    (["sample-analytic", "--span", "inf"], None),
    (["sample-analytic", "--resolution", str(cli.MAX_RESOLUTION + 1)], None),
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, space_json):
    """Bad shapes in space files (an empty matrix included), elements (a
    weight key that is not a canonical index included) and --values, unknown --param
    keys of a standard instance, sizes outside 2..MAX_N, and sampling
    spans that are not finite and positive or resolutions past
    MAX_RESOLUTION, exit 2 with one error line, never with a traceback
    (exit 1 is reserved for failed checks). Battery sizes outside their
    bounds are refused before any family is built."""
    def must_not_build(*args, **kwargs):
        raise AssertionError("a malformed verify built its family")

    monkeypatch.setattr(cli, "standard_family", must_not_build)
    if space_json is not None:
        space_file = tmp_path / "space.json"
        space_file.write_text(json.dumps(space_json))
        argv = argv + ["--space", str(space_file)]
    code, path = run(tmp_path, *argv)
    assert code == 2
    assert not path.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_failure_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    """A failed internal certificate is a bug, not a verdict: exit 4 with
    one error line."""
    def broken(mu):
        raise LipcheckError("dual witness escaped the unit ball")

    monkeypatch.setattr(cli, "free_norm_lp", broken)
    code, path = run(tmp_path, "free-norm", "--space", "discrete", "--n", "3",
                     "--element", '{"weights": {"1": "1"}}')
    assert code == 4
    assert not path.exists()
    assert capsys.readouterr().err == "error: dual witness escaped the unit ball\n"


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
    st.sampled_from(["0", "1", "-1/2", "2/4", "x", ""]),
)
_JUNK_JSON = st.one_of(
    st.recursive(
        _JSON_LEAF,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["weights", "0", "1", "9", "x"]), inner, max_size=3),
        max_leaves=6,
    ).map(json.dumps),
    st.sampled_from(["not json", "", "[", '["0", "1", "-1/2"]', '{"weights": {"1": "1", "2": "-1"}}']),
)
_PARAMS = st.lists(st.tuples(
    st.sampled_from(["c", "levels", "groups", "ratio", "N", "name", "theorem_id", "zz", ""]),
    st.sampled_from(["-1", "0", "1", "2", "3", "5", "1/2", "3/2", "2/4", "abc", ""]),
), max_size=2)
# Written to a file and passed as --space: metrics with zero to three
# points, a non-metric, and junk.
_SPACE_FILES = st.one_of(
    st.sampled_from([
        '{"dist": []}',
        '{"dist": [["0"]]}',
        '{"dist": [["0", "1"], ["1", "0"]]}',
        '{"dist": [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]], "name": "tri"}',
        '{"dist": [["0", "1"], ["2", "0"]]}',
    ]),
    _JUNK_JSON,
).map(lambda text: ("space file", text))
_N = st.one_of(st.sampled_from([2, 3, 5, 8]), st.sampled_from([None, -1, 0, 1, cli.MAX_N + 1]))
_MODELS = st.sampled_from(cli.MODEL_NAMES + ("nope",))


@st.composite
def _argv(draw):
    """A subcommand with catalog names or space files, junk --param pairs,
    --n values on both sides of the bounds, and junk JSON for --values and
    --element. A space file is drawn as ``("space file", text)``."""
    command = draw(st.sampled_from(["validate", "norm", "free-norm", "check", "verify", "pipeline"]))
    argv = [command]
    if command in ("validate", "norm", "free-norm"):
        argv += ["--space", draw(st.one_of(_MODELS, st.just("missing.json"), _SPACE_FILES))]
    elif command == "verify":
        argv += ["--theorem", draw(st.sampled_from(cli.VERIFY_THEOREMS)),
                 "--support", str(draw(st.integers(0, 2))),
                 "--rand-count", str(draw(st.integers(-1, 2)))]
    else:
        if command == "check":
            argv += ["--theorem", draw(st.sampled_from(cli.CHECK_THEOREMS))]
        argv += ["--model", draw(_MODELS)]
    n = draw(_N)
    if n is not None:
        argv += ["--n", str(n)]
    for key, value in draw(_PARAMS):
        argv += ["--param", f"{key}={value}"]
    if command == "norm":
        argv += ["--values", draw(_JUNK_JSON)]
    if command == "free-norm":
        argv += ["--element", draw(_JUNK_JSON)]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["validate", "--space", ("space file", '{"dist": []}')])
@example(["norm", "--space", ("space file", '{"dist": []}'), "--values", "[]"])
@example(["free-norm", "--space", ("space file", '{"dist": []}'), "--element", '{"weights": {}}'])
@example(["norm", "--space", ("space file", '{"dist": [["0"]]}'), "--values", '["0"]'])
@example(["free-norm", "--space", ("space file", '{"dist": [["0"]]}'),
          "--element", '{"weights": {}}'])
@example(["free-norm", "--space", "discrete", "--n", "3",
          "--element", '{"weights": {"1": "1/2", "01": "1"}}'])
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    """Any argv exits 0-3 without a traceback, and exit 1 comes only with a
    written report that records a failed check."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for arg in argv:
            if isinstance(arg, tuple):
                path = os.path.join(tmp, "space.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(arg[1])
                arg = path
            args.append(arg)
        out = os.path.join(tmp, "out.json")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(args + ["--out", out])
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 1:
            blob = read(out)
            assert any(blob.get(k) is False for k in ("passed", "ok", "expectation_pass"))


# sha256 of each report, recorded before the construction table replaced
# the per-id dispatch chains
GOLDEN_CHECKS = {
    ("prop31", "integer_line", 10):
        "21e34540fd5825e2ca5e831c16eee08058344b8352a603c608a04efbce9822e9",
    ("thm34", "discrete", 16):
        "5b7c76e4a2c78bf84560f7a713af789257d38472f5db3e0115caa07f26c70c08",
    ("thm37", "example35", 10):
        "002580c8d922691b85ef776b94a71dfea42cd6fb127586d171e8317a73102a27",
    ("prop42", "integer_line", 12):
        "ef2fb598f1de67ce92fea932dd81f3c7e649b9319cc070e2511ef9ad4c25704e",
    ("thm43", "dmqr41", 20):
        "4f786fcecb0e6151abdf9969e70a060c066a500bbd87f309766ae446d0f2c13b",
    ("thm45", "example44", 20):
        "4d5670c74e8feae32283259f95aedc72b2975731e63f95f68aab6d0beef2c59a",
    ("thm46", "dmqr44", 20):
        "408d6f47bf284acbcef4d000486497a1c3e852cd07d1c5b2fa0a249c05184246",
    ("thm310", "dmqr41", 12):
        "4c0f448f45a1ba74a553b3b1d8a596f71946fec1f464c16a6251670c3e7702c0",
}
GOLDEN_VERIFY = {
    "prop23": "bea4dfe45ea366221c134c985736c989551fdc15547f1406a19236e02ee5351e",
    "prop31": "9994d66de1474d8242b231d28f8195541f9491957de67673b0a8e068f482a703",
    "thm34": "30cea2b6da03303fc07b410716c04b83f6632d8ac563cab66a7124b3615c371b",
    "thm37": "437d95833c4b17dde7b7c5b032aff0dccce41469481c820e07b933283aa533e6",
    "prop42": "e88a39d2e417f03577bdfb638cbff353019e97acda93f0a336baf1357cf22779",
    "thm43": "815b5ec978e920c655c39c9ddf10883195680aa65e40ccba60bd3e819107ccdb",
    "thm45": "2741b263fb5822f6040b3c4b282fca548d9fff21ccbb73f966b2de29bf97bbf8",
    "thm46": "baec1dc271cd7d02e926ea347eac4287cff2f78368e5612a7da024f63eb11fca",
    "thm51": "bf09dd9c6070357ee5682d420603c6dd7365a16dd95cfe00dc048c79f56eb809",
    "prop53": "cdb5b8d8e6268b5a85f42dfa5b69caf44591a2220bbc8ae6615290a6d55d7c7a",
    "thm57": "dc3b94c14ccb5e9538bb77533aad16c719d31b6f140fe5b9e22b77c7249e1387",
}

# sha256 of each pipeline report at N=30, recorded before the coefficient
# battery moved to integers; one model per case
GOLDEN_PIPELINE = {
    "power_line": ("II", "65a011809b9850da71f53dddd51a9336b4459fc2a2b7c00453e24617d4ddae66"),
    "example48": ("I-(ii)", "1b5c8466981a1e4042f2498865437134eae0ae971eac6672c171e228f2641ad1"),
    "dmqr41": ("I-(i)", "6053fb39a0e16962968be991bf454e9796078e3174a529e508734b301af13909"),
}


@pytest.mark.parametrize("model", list(GOLDEN_PIPELINE))
def test_pipeline_reports_match_golden_digests(tmp_path, model):
    case, digest = GOLDEN_PIPELINE[model]
    code, path = run(tmp_path, "pipeline", "--model", model, "--n", "30")
    assert code == 0
    assert read(path)["case"] == case
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("model, n, digest", [
    ("dmqr41", 4, None),  # case I-(i)
    ("example44", 3, None),  # case I-(i)
    ("dmqr44", 3, "ad496d910e441072000e4c416938985d63179af64141844cb8e2a5214bba4270"),  # II
])
def test_pipeline_with_no_family_member_writes_a_failing_report(tmp_path, model, n, digest):
    """A truncation too short to carry a member fails its case with a
    report, exit 1, in every case; case I-(i) exited 2 before, with no
    report, when the battery refused the empty family."""
    code, path = run(tmp_path, "pipeline", "--model", model, "--n", str(n))
    assert code == 1
    assert read(path) == {
        "command": "pipeline", "error": "selection too short to carry any orbit member",
        "model": model, "n": n, "passed": False, "seed": 20260815,
    }
    if digest is not None:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _alternating_element(n):
    """Full support: weight (-1)**p * p / (p + 1) at every row p >= 1."""
    return json.dumps({"weights": {
        str(p): format_rat(rat((-1) ** p * p, p + 1)) for p in range(1, n)
    }})


# sha256 of each free-norm report, recorded before the transport and its
# dual moved to the integer view: a full-support element, a tie-heavy one,
# and a full-support element at the size cap
GOLDEN_FREE_NORM = {
    ("dmqr41", 10): (
        _alternating_element(10),
        "e69833ea9b2372868ec359bbb460b9ec8d6d18cf5e213fb88c0025de938c976e",
    ),
    ("discrete", 8): (
        json.dumps({"weights": {"1": "2", "2": "-1", "3": "1", "4": "-2",
                                "5": "1", "6": "-1", "7": "1"}}),
        "1e0ae5ea1c1ef93a621365a9f6ba36db894a909da31bf506aaeb08d5ae5a6e2c",
    ),
    ("example48", cli.MAX_N): (
        _alternating_element(cli.MAX_N),
        "958779ce9bfa83628ff0ef14c867ba7f428405d2aa1b9c38323fa5922c9f1e14",
    ),
}


@pytest.mark.parametrize("space,n", list(GOLDEN_FREE_NORM))
def test_free_norm_reports_match_golden_digests(tmp_path, space, n):
    """The size-cap case solves a 128-point full-support element in seconds."""
    element, digest = GOLDEN_FREE_NORM[space, n]
    code, path = run(tmp_path, "free-norm", "--space", space, "--n", str(n),
                     "--element", element)
    assert code == 0
    blob = read(path)
    assert blob["passed"] is True and len(blob["dual_witness"]) == n
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_check_and_verify_reports_match_golden_digests(tmp_path):
    """Every check id on its canonical catalog model and every verify id
    writes the pinned report bytes, and the id tuples keep their order."""
    assert cli.VERIFY_THEOREMS == (
        "prop23", "prop31", "thm34", "thm37", "prop42",
        "thm43", "thm45", "thm46", "thm51", "prop53", "thm57",
    )
    assert cli.CHECK_THEOREMS == (
        "prop31", "thm34", "thm37", "prop42", "thm43", "thm45", "thm46", "thm310",
    )
    assert [key[0] for key in GOLDEN_CHECKS] == list(cli.CHECK_THEOREMS)
    assert list(GOLDEN_VERIFY) == list(cli.VERIFY_THEOREMS)
    for (theorem, model, n), digest in GOLDEN_CHECKS.items():
        code, path = run(tmp_path, "check", "--theorem", theorem, "--model", model,
                         "--n", str(n), name=f"check-{theorem}.json")
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, theorem
    for theorem, digest in GOLDEN_VERIFY.items():
        code, path = run(tmp_path, "verify", "--theorem", theorem, "--support", "2",
                         "--rand-count", "2", name=f"verify-{theorem}.json")
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, theorem


def test_no_check_in_the_package_is_an_assert():
    """``python -O`` strips ``assert`` statements, so a correctness check
    written as one would stop checking there."""
    package = pathlib.Path(lipcheck.__file__).parent
    sources = sorted(package.rglob("*.py"))
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sources and found == []


def test_no_unused_module_level_import_in_the_package():
    """Every name a module imports at module level is read in it, so an
    import whose last use moved away does not linger (``__init__`` imports
    to re-export, so it is left out)."""
    package = pathlib.Path(lipcheck.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert sources and found == []


def test_no_module_imports_a_private_name_from_another():
    """No package module imports an underscore-prefixed name from another
    module: what modules share is public, so a private helper can change
    without reaching past its module."""
    package = pathlib.Path(lipcheck.__file__).parent
    sources = sorted(package.glob("*.py"))
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert sources and found == []


def test_every_package_name_is_exported_or_read_in_the_package():
    """Each module-level name of the package is in ``lipcheck.__all__`` or
    read in the package outside its own definition, so a builder or oracle
    that only tests use lives in ``tests/``. Reads are resolved by scope with
    ``symtable``: a local, a parameter or an attribute that shares the name
    of a module-level one does not read it."""
    package = pathlib.Path(lipcheck.__file__).parent
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    defined, read = set(), set()
    for mod, text in modules.items():
        imported = {}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update({alias.asname or alias.name: (node.module, alias.name)
                                 for alias in node.names})
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((node.value.id, node.attr))  # acceptance.run_all
        top = symtable.symtable(text, mod, "exec")

        def visit(table, owner):
            for sym in table.get_symbols():
                name = sym.get_name()
                if not sym.is_referenced() or not (table is top or sym.is_global()):
                    continue
                if name in imported:
                    read.add(imported[name])
                elif name != owner:
                    read.add((mod, name))
            for child in table.get_children():
                visit(child, child.get_name() if table is top else owner)

        visit(top, None)
        defined |= {(mod, sym.get_name()) for sym in top.get_symbols()
                    if not sym.is_imported() and (sym.is_assigned() or sym.is_namespace())}
    found = sorted(f"{mod}.{name}" for mod, name in defined - read
                   if name not in lipcheck.__all__ and not name.startswith("__"))
    assert defined and found == []


def test_the_package_imports_only_the_standard_library():
    """A package module imports nothing outside the standard library and
    the package, so a helper moved to ``tests/`` cannot be imported back."""
    package = pathlib.Path(lipcheck.__file__).parent
    sources = sorted(package.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"lipcheck"}]
    assert sources and found == []


def test_a_reimported_package_frees_its_earlier_copy():
    """No module evaluates an annotation that subscripts a package class
    (``Optional[WeightedTree]`` did): typing's caches kept such a class, and
    through it every module's globals, so each fresh import of the package
    added a copy that no garbage collection freed. Run in a subprocess, as
    re-importing here would hand later tests new classes."""
    script = (
        "import gc, importlib, sys, weakref\n"
        "def load():\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'lipcheck']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('lipcheck.cli')\n"
        "    importlib.import_module('lipcheck.acceptance')\n"
        "    return sys.modules\n"
        "old = [weakref.ref(vars(m)[k]) for m in list(load().values())\n"
        "       if m.__name__.startswith('lipcheck.') for k, v in vars(m).items()\n"
        "       if callable(v) and getattr(v, '__module__', '') == m.__name__]\n"
        "load()\n"
        "gc.collect()\n"
        "print(len(old), sum(ref() is not None for ref in old))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lipcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert int(out[0]) > 100 and out[1] == "0"


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


# sha256 of the JSON report and of its markdown summary, recorded before
# every expectation became one per-vector rule (the same on Python 3.10 and
# 3.11)
GOLDEN_REPORT = {
    ".json": "5a4d3689032ae8714047111ecd7902fdf8595938befd9bee760cdc36baa38c6b",
    ".md": "5fa7df1d1eba67860a14ec5091a7af799de4a0a8c07d37ca04ea62694794696f",
}


@pytest.mark.parametrize("horizon, code", [
    (cli.MAX_HORIZON, 0), (cli.MAX_HORIZON + 1, 2), (10 ** 400, 2),
])
def test_sample_analytic_horizon_is_capped(tmp_path, capsys, horizon, code):
    """Up to the cap the horizon check's 4/horizon stays above float64's
    spacing at 1.0 and the sample passes; past it the horizon is refused
    with exit 2 before any sampling, never with a traceback."""
    got, path = run(tmp_path, "sample-analytic", "--resolution", "8", "--horizon", str(horizon))
    assert got == code
    err = capsys.readouterr().err
    if code == 0:
        assert read(path)["passed"] is True and err == ""
    else:
        assert not path.exists()
        assert err.startswith("error: --horizon ") and err.count("\n") == 1


def test_report_command(acceptance_report):
    code, blob, md, path = acceptance_report
    assert code == 0
    assert blob["passed"] is True
    assert [row["id"] for row in blob["criteria"]] == list(range(1, 12))
    assert md.count("| pass |") == 11
    for suffix, digest in GOLDEN_REPORT.items():
        assert hashlib.sha256(path.with_suffix(suffix).read_bytes()).hexdigest() == digest, suffix
