import contextlib
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import shiftdim
import shiftdim.cli
from shiftdim import errors
from shiftdim.certificates import Certificate
from shiftdim.cli import main
from shiftdim.config import parse_config_text, spec_from_config
from shiftdim.errors import (
    ConfigError,
    DepthInsufficient,
    HeightMismatch,
    InvalidSpec,
    NTooSmall,
    PeriodicWitness,
    ShiftDimError,
    TowerPairsInsufficient,
)
from shiftdim.pipeline import recheck_certificate, run_stages

FIB_CFG = """\
variant = substitution
alphabet = 0 1
rule.0 = 0 1
rule.1 = 0
"""

SFT_CFG = """\
variant = sft
alphabet = 0 1
forbidden = 11
"""


@pytest.fixture()
def fib_cfg(tmp_path):
    path = tmp_path / "fib.cfg"
    path.write_text(FIB_CFG)
    return str(path)


def test_config_parsing_round_trip():
    spec, rest = spec_from_config(FIB_CFG)
    assert spec.variant == "substitution"
    assert rest == {}
    spec, _ = spec_from_config(SFT_CFG)
    assert spec.variant == "sft"


def test_config_errors_report_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("variant = sft\nbroken line\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="variant"):
        spec_from_config("alphabet = 0 1\n")


def test_config_refuses_unknown_keys():
    # a typo of the variant's own key must not run as the full shift
    with pytest.raises(ConfigError, match="unknown key 'forbiden' for variant 'sft'"):
        spec_from_config("variant = sft\nalphabet = 0 1\nforbiden = 11\n")
    # a key of another variant, and `horizon`, which no variant reads
    with pytest.raises(ConfigError, match="unknown key 'forbidden' for variant 'substitution'"):
        spec_from_config(FIB_CFG + "forbidden = 11\n")
    with pytest.raises(ConfigError, match="unknown key 'rule.0' for variant 'full_shift'"):
        spec_from_config("variant = full_shift\nalphabet = 0 1\nrule.0 = 0 1\n")
    with pytest.raises(ConfigError, match="unknown key 'horizon' for variant 'sft'"):
        spec_from_config(SFT_CFG + "horizon = 20\n")


def test_unknown_config_key_exit_code(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text("variant = sft\nalphabet = 0 1\nforbiden = 11\n")
    assert main(["lang", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "config error in stage spec: unknown key 'forbiden' for variant 'sft'\n"
    )


def test_bounds_command(capsys):
    code = main(["bounds", "--q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(rokhlin <= 3, tower <= 7, amenability <= 7, dad <= 7, nuclear <= 6)" in out


@pytest.mark.parametrize("flags, message", [
    (["--q", "-1"], "q -1 must be >= 0"),
    (["--q", "1", "--dim-x", "-2"], "dim_x -2 must be >= 0"),
])
def test_bounds_below_0_exit_3(capsys, flags, message):
    assert main(["bounds", *flags]) == 3
    assert capsys.readouterr().err == f"bad parameter: {message}\n"


def test_lang_command_writes_csv(fib_cfg, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["lang", "--config", fib_cfg, "--horizon", "10", "--out", out_dir])
    assert code == 0
    csv_path = os.path.join(out_dir, "language.csv")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "n,p,words_file"
    # p(n) = n + 1 column
    assert [int(line.split(",")[1]) for line in lines[1:]] == list(range(2, 12))


def test_lang_command_first_image_one_letter(tmp_path, capsys):
    # 0 -> 1, 1 -> 01 is primitive and Sturmian; its first image is one letter
    cfg = tmp_path / "flip.cfg"
    cfg.write_text("variant = substitution\nalphabet = 0 1\nrule.0 = 1\nrule.1 = 0 1\n")
    code = main(["lang", "--config", str(cfg), "--horizon", "6"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["params"]["p"] == [2, 3, 4, 5, 6, 7]


def test_usage_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("variant = banana\nalphabet = 0 1\n")
    code = main(["special", "--config", str(bad), "--depth", "8"])
    assert code == 3


def exit_code(argv) -> int:
    """``main``'s exit code, also where argparse exits on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("epsilon", ["abc", "1/0", "0", "-1/2"])
def test_bad_epsilon_exit_code(fib_cfg, epsilon, capsys):
    code = exit_code(["amen", "--config", fib_cfg, "--depth", "20", f"--epsilon={epsilon}"])
    assert code == 3
    assert f"bad --epsilon {epsilon!r}" in capsys.readouterr().err


COVER_FLAGS = {"--depth", "--past-len"}
AMEN_FLAGS = COVER_FLAGS | {"--height", "--window", "--big-n", "--epsilon"}

# subcommand -> the chain flags it takes besides --config and --out: the
# flags of the fields its stages read
CHAIN_FLAG_SETS = {
    "lang": {"--horizon"},
    "special": {"--depth"},
    "cover": COVER_FLAGS,
    "rokhlin": COVER_FLAGS | {"--height"},
    "towerdim": COVER_FLAGS | {"--height", "--window"},
    "amen": AMEN_FLAGS,
    "dad": AMEN_FLAGS | {"--exponent-bound"},
    "certify": AMEN_FLAGS | {"--exponent-bound", "--horizon"},
}


@pytest.mark.parametrize("command", sorted(CHAIN_FLAG_SETS))
def test_subcommand_takes_the_flags_its_stages_read(command, capsys):
    assert exit_code([command, "--help"]) == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags - {"--help", "--config", "--out"} == CHAIN_FLAG_SETS[command]


@pytest.mark.parametrize("argv, error", [
    (["lang", "--height", "7", "--big-n", "3"], "unrecognized arguments: --height 7 --big-n 3"),
    (["special", "--horizon", "2"], "unrecognized arguments: --horizon 2"),
    (["cover", "--epsilon", "2"], "unrecognized arguments: --epsilon 2"),
    (["cover", "--depth", "abc"], "argument --depth: invalid int value: 'abc'"),
    (["towerdim", "--window", "1,x"], "argument --window: bad window set '1,x'"),
], ids=["lang-height", "special-horizon", "cover-epsilon", "depth-abc", "window-1x"])
def test_usage_error_exits_3(fib_cfg, capsys, argv, error):
    command, *flags = argv
    assert exit_code([command, "--config", fib_cfg, *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the subcommand's own parser reports it, with the flags it does take
    usage = f"usage: shiftdim {command} [-h] --config CONFIG [--out OUT]"
    assert captured.err.startswith(usage)
    assert captured.err.rstrip().endswith(f"shiftdim {command}: error: {error}")


def test_flag_metavars_are_the_flag_names(capsys):
    assert exit_code(["special", "--help"]) == 0
    assert "--depth DEPTH " in capsys.readouterr().out
    assert exit_code(["amen", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--window WINDOW " in help_text and "--big-n BIG_N " in help_text


def test_missing_config_exits_3(capsys):
    assert exit_code(["cover", "--depth", "20"]) == 3
    assert capsys.readouterr().err.rstrip().endswith(
        "error: the following arguments are required: --config"
    )


def test_special_command(fib_cfg, capsys):
    code = main(["special", "--config", fib_cfg, "--depth", "12"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "special-report"
    assert payload["verdict"] == "pass"


def test_rokhlin_command_and_verify(fib_cfg, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main([
        "rokhlin", "--config", fib_cfg, "--depth", "60", "--past-len", "6",
        "--height", "5", "--out", out_dir,
    ])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", os.path.join(out_dir, "rokhlin.json")])
    assert code == 0
    assert "verified" in capsys.readouterr().out


def test_verify_rejects_corrupted_certificate(fib_cfg, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    main([
        "rokhlin", "--config", fib_cfg, "--depth", "60", "--past-len", "6",
        "--height", "5", "--out", out_dir,
    ])
    capsys.readouterr()
    path = os.path.join(out_dir, "rokhlin.json")
    with open(path) as fh:
        data = json.load(fh)
    data["params"]["tower_bases"][0] = data["params"]["tower_bases"][0][:-1]
    with open(path, "w") as fh:
        json.dump(data, fh)
    code = main(["verify", path])
    assert code == 1
    out = capsys.readouterr().out
    assert "failed" in out


def test_verify_reports_missing_witness(fib_cfg, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    main([
        "rokhlin", "--config", fib_cfg, "--depth", "60", "--past-len", "6",
        "--height", "5", "--out", out_dir,
    ])
    capsys.readouterr()
    path = os.path.join(out_dir, "rokhlin.json")
    with open(path) as fh:
        data = json.load(fh)
    del data["params"]["tower_bases"]
    with open(path, "w") as fh:
        json.dump(data, fh)
    code = main(["verify", path])
    assert code == 1
    assert capsys.readouterr().out == (
        "verification failed: missing or malformed witness 'tower_bases'\n"
    )


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("certify")
    cfg = root / "fib.cfg"
    cfg.write_text(FIB_CFG)
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "certify", "--config", str(cfg), "--horizon", "16", "--depth", "250",
            "--big-n", "30", "--epsilon", "5/2", "--out", str(out),
        ])
    assert code == 0
    return out


def verify_copy(
    chain_dir, tmp_path, capsys, edit=None, remove=None, target="chain.json", edited=None,
    alone=False,
):
    """Copy the chain, or only ``target`` into an empty directory when
    ``alone``, change the params of the files ``edited`` (by default
    ``target``) by ``edit`` and delete the stage file ``remove``, then
    verify ``target``; (exit code, stdout)."""
    out = tmp_path / "chain"
    if alone:
        out.mkdir()
        shutil.copy(chain_dir / target, out / target)
    else:
        shutil.copytree(chain_dir, out)
    path = out / target
    for name in (edited or [target]) if edit else []:
        data = json.loads((out / name).read_text())
        edit(data["params"])
        (out / name).write_text(json.dumps(data))
    if remove:
        (out / remove).unlink()
    capsys.readouterr()
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out


# a recomputation that differs names the first params key that differs
DIFFERS_AT = "recomputation differs from stored certificate at params key"


def test_verify_chain(chain_dir, tmp_path, capsys):
    code, out = verify_copy(chain_dir, tmp_path, capsys)
    assert code == 0
    assert out == "verified: certify-chain (pass)\n"


def test_verify_chain_rejects_other_config(chain_dir, tmp_path, capsys):
    def edit(params):
        params["config"] = "variant = full_shift\nalphabet = 0 1\n"
        params["stages"]["dad"] = "fail"

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit)
    assert code == 1
    assert out == (
        "verification failed: stage lang: lang.json echoes spec other than "
        "presentation(chain.json config)\n"
    )


def test_verify_chain_rejects_changed_stage_verdict(chain_dir, tmp_path, capsys):
    def edit(params):
        params["stages"]["dad"] = "fail"

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit)
    assert code == 1
    assert "stage dad: dad.json records pass, the chain fail" in out


def test_verify_chain_rejects_a_stage_file_of_another_kind(chain_dir, tmp_path, capsys):
    # a genuine bounds certificate, passing, in the place of lang.json
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    shutil.copy(out / "bounds.json", out / "lang.json")
    capsys.readouterr()
    assert main(["verify", str(out / "chain.json")]) == 1
    assert capsys.readouterr().out == (
        "verification failed: stage lang: lang.json is bounds, not language-table\n"
    )


@pytest.mark.parametrize("config, why", [
    (7, "stage lang: chain.json config: 7 is not a string"),
    ("variant = banana\n", "chain config: missing key 'alphabet'"),
], ids=["integer", "no-alphabet"])
def test_verify_chain_refuses_a_config_it_cannot_parse(chain_dir, tmp_path, capsys, config, why):
    def edit(params):
        params["config"] = config

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit)
    assert (code, out) == (1, f"verification failed: {why}\n")


def test_verify_chain_rejects_missing_stage_file(chain_dir, tmp_path, capsys):
    code, out = verify_copy(chain_dir, tmp_path, capsys, remove="amen.json")
    assert code == 1
    assert "stage amen: cannot read amen.json" in out


@pytest.mark.parametrize("stage, flags", [
    ("towerdim", []),
    ("dad", ["--big-n", "30", "--epsilon", "5/2"]),
])
def test_verify_chain_rejects_stage_file_of_another_depth(
    chain_dir, tmp_path, capsys, stage, flags
):
    # the stage file of a depth-300 run, in the depth-250 chain
    cfg = tmp_path / "fib.cfg"
    cfg.write_text(FIB_CFG)
    other = tmp_path / "depth300"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([stage, "--config", str(cfg), "--depth", "300", *flags, "--out", str(other)])
    assert code == 0
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    shutil.copy(other / f"{stage}.json", out / f"{stage}.json")
    capsys.readouterr()
    assert main(["verify", str(out / "chain.json")]) == 1
    assert capsys.readouterr().out == (
        f"verification failed: stage {stage}: {stage}.json echoes k = 300, cover.json k = 250\n"
    )


@pytest.mark.parametrize("target, key, value", [
    ("rokhlin.json", "variant", "bogus"),
    ("lang.json", "rules", {"0": "0 1"}),
], ids=["rokhlin-variant-bogus", "lang-rule-missing"])
def test_verify_rejects_malformed_spec_echo(chain_dir, tmp_path, capsys, target, key, value):
    def edit(params):
        params["spec"][key] = value

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target)
    assert code == 1
    assert out.startswith("verification failed: missing or malformed witness: spec echo: ")


@pytest.mark.parametrize("key, value, message", [
    ("depth", 999, "stage cover: cover.json echoes k = 250, chain.json depth = 999"),
    ("big_n", 1, "stage amen: amen.json echoes resolution = 30, chain.json big_n = 1"),
])
def test_verify_chain_rejects_other_parameter(chain_dir, tmp_path, capsys, key, value, message):
    def edit(params):
        params[key] = value

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit)
    assert code == 1
    assert out == f"verification failed: {message}\n"


@pytest.mark.parametrize("target, key, value", [
    ("rokhlin.json", "special_count", 7),
    ("amen_pairs.json", "pair_exponent_ranges", [-3, 232]),
    ("amen_pairs.json", "pair_exponent_ranges", [1, 232]),
    ("amen_pairs.json", "pair_exponent_ranges", [5, 2]),
    ("amen.json", "map", "1/0"),
    ("dad.json", "map", "1/0"),
    ("amen.json", "epsilon", "1/0"),
    ("dad.json", "epsilon", "1/0"),
    ("dad.json", "projection_moved", "abc"),
    ("towerdim.json", "carrier", "fullx"),
], ids=["special-count", "range-negative-start", "range-start-1", "range-reversed",
        "amen-weight-zero-denominator", "dad-weight-zero-denominator",
        "amen-epsilon-zero-denominator", "dad-epsilon-zero-denominator",
        "dad-projection-moved-not-a-fraction", "carrier-fullx"])
def test_verify_rejects_tampered_echo(chain_dir, tmp_path, capsys, target, key, value):
    def edit(params):
        if key == "pair_exponent_ranges":
            params[key][0] = value
        elif key == "map":
            point = params[key]["points"][0]
            point[next(iter(point))] = value
        else:
            params[key] = value

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target)
    assert code == 1
    assert out.startswith("verification failed")
    if key == "pair_exponent_ranges":
        assert f"missing or malformed witness: exponent range {value}" in out
    if value in ("1/0", "fullx"):
        assert out.startswith("verification failed: missing or malformed witness")
    if key == "projection_moved":
        # derived, not read back: the re-check stamps 0
        assert out == f"verification failed: {DIFFERS_AT} 'projection_moved'\n"


@pytest.mark.parametrize("target, old, new", [
    ("amen_pairs.json", 233, lambda h: 5),
    ("towerdim.json", None, lambda h: h + 1),
], ids=["amen-pairs-to-5", "towerdim-plus-1"])
def test_verify_rejects_height_not_read_off_pairs(chain_dir, tmp_path, capsys, target, old, new):
    # the height echo is the length of the pairs' [0, h-1] exponent ranges
    def edit(params):
        assert old is None or params["height"] == old
        params["height"] = new(params["height"])

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target)
    assert code == 1
    assert out.startswith("verification failed: recomputation differs from stored certificate")


@pytest.mark.parametrize("target, old, new", [
    ("amen_pairs.json", 61, 63),
    ("towerdim.json", 3, 5),
], ids=["amen-pairs", "towerdim"])
def test_verify_recomputes_pull_back_shift(chain_dir, tmp_path, capsys, target, old, new):
    # M is not read back: the re-check recomputes it as 1 + 2 max|E|
    def edit(params):
        assert params["M"] == old
        params["M"] = new

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target)
    assert code == 1
    assert out == f"verification failed: {DIFFERS_AT} 'M'\n"


def test_verify_applies_the_cover_horizon_bound(chain_dir, tmp_path, capsys):
    def edit(params):
        params["horizon"] = 3

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target="cover.json")
    assert code == 1
    assert out == "verification failed: bad parameter: horizon 3 must be >= k + l = 256\n"


@pytest.mark.parametrize("key, value, message", [
    ("projection_moved", "1/3", f"{DIFFERS_AT} 'projection_moved'"),
    ("support", [0], f"{DIFFERS_AT} 'support'"),
    ("epsilon", "-1/2", "bad parameter: epsilon -1/2 must be positive"),
    ("epsilon", "0", "bad parameter: epsilon 0 must be positive"),
    ("orbit_states", list(range(1000)), f"{DIFFERS_AT} 'orbit_states'"),
], ids=["moved-1/3", "support-0", "epsilon--1/2", "epsilon-0", "orbit-states-all"])
def test_verify_measures_the_dad_projection(chain_dir, tmp_path, capsys, key, value, message):
    # support and projection_moved are derived from the echoed map: its
    # support window, and 0; epsilon must be positive, as --epsilon must;
    # orbit_states is read off the graph, since an orbit bucket of every
    # state would excuse every restricted element by case 2; the re-check
    # stamps the values it derives, and the stored ones differ
    def edit(params):
        params[key] = value

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target="dad.json")
    assert code == 1
    assert out == f"verification failed: {message}\n"


def swap_two_weights(params):
    """Swap the weights of two atoms of the first map point whose weights differ."""
    point = next(p for p in params["map"]["points"] if len(set(p.values())) > 1)
    (a, wa), (b, wb) = next((x, y) for x in point.items() for y in point.items() if x[1] != y[1])
    point[a], point[b] = wb, wa


def test_verify_chain_ties_the_dad_map_to_amen(chain_dir, tmp_path, capsys):
    # the amen re-check measures amen.json's map, so dad.json must echo it
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=swap_two_weights, edited=["dad.json"])
    assert code == 1
    assert out == "verification failed: stage dad: dad.json echoes map other than amen.json map\n"


def test_dad_stage_covers_the_amen_map_without_projecting(tmp_path, capsys, monkeypatch):
    from shiftdim import amenability, pipeline

    projected, built, checked = [], [], []
    monkeypatch.setattr(amenability, "project_finite_support", lambda *a: projected.append(a))
    run_amen, check = pipeline.run_amen, pipeline.check_equivariance

    def amen(*args):
        result = run_amen(*args)
        built.append(result[0])
        return result

    def checking(sys, emap, *args):
        checked.append(emap)
        return check(sys, emap, *args)

    monkeypatch.setattr(pipeline, "run_amen", amen)
    monkeypatch.setattr(pipeline, "check_equivariance", checking)
    cfg = tmp_path / "fib.cfg"
    cfg.write_text(FIB_CFG)
    out = tmp_path / "out"
    assert main([
        "certify", "--config", str(cfg), "--horizon", "16", "--depth", "250",
        "--big-n", "30", "--epsilon", "5/2", "--out", str(out),
    ]) == 0
    # run_amen's own check, then run_dad's, both on the map run_amen returned
    assert len(built) == 1 and len(checked) == 2
    assert all(emap is built[0] for emap in checked)
    assert main(["verify", str(out / "chain.json")]) == 0
    assert projected == []


def test_verify_dad_builds_graph_and_window_once_and_measures_no_map(chain_dir, monkeypatch):
    from shiftdim import pipeline

    calls = []
    for name in ("build_cover_graph", "build_window", "check_equivariance"):
        fn = getattr(pipeline, name)
        monkeypatch.setattr(
            pipeline, name, lambda *a, name=name, fn=fn: calls.append(name) or fn(*a)
        )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(chain_dir / "dad.json")]) == 0
    assert sorted(calls) == ["build_cover_graph", "build_window"]


@pytest.mark.parametrize("target", ["amen.json", "dad.json", "chain.json"])
def test_verify_rejects_a_support_window_off_the_atoms(chain_dir, tmp_path, capsys, target):
    def edit(params):
        params["map"]["support_window"] = [0, 1]

    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=edit, target=target, edited=["amen.json", "dad.json"]
    )
    assert code == 1
    assert out.endswith(
        "missing or malformed witness: "
        "support_window is not the sorted union of the points' atoms\n"
    )


@pytest.mark.parametrize("key, value, message", [
    ("epsilon", "7/2", "dad.json echoes epsilon = '7/2', chain.json epsilon = '5/2'"),
    ("E", [-2, 0, 2],
     "dad.json echoes E = [-2, 0, 2], normalized(chain.json window_set) = [-1, 0, 1]"),
], ids=["epsilon-7/2", "E"])
def test_verify_chain_compares_dad_echoes(chain_dir, tmp_path, capsys, key, value, message):
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    data = json.loads((out / "dad.json").read_text())
    data["params"][key] = value
    (out / "dad.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(out / "chain.json")]) == 1
    assert capsys.readouterr().out == f"verification failed: stage dad: {message}\n"


# The map's scalar echoes that dad.json's own re-check does not re-derive:
# the resolution and the deviation are the amen stage's, and dad.json holds
# no pairs to rebuild the map from.  The map tie to amen.json, whose
# re-check measures both, catches them when amen.json lies beside it
# (test_verify_checks_the_ties_of_a_stage_file_beside_it); a dad.json alone
# in its directory still passes them, the gap that ROADMAP item 9's rebuild
# of the map from its pairs closes.
DAD_MAP_ECHOES_NOT_RECHECKED = {"resolution", "epsilon_achieved"}


@pytest.mark.parametrize("key, edit", [
    ("d", lambda d: d + 1),
    ("resolution", lambda n: n + 1),
    ("window_set", lambda E: [-2, 0, 2]),
    ("window_set", lambda E: [-1, 0]),
    ("epsilon_achieved", lambda eps: "1/1000000"),
], ids=["d", "resolution", "window-set", "window-set-not-normalised", "epsilon-achieved"])
@pytest.mark.parametrize("target", ["amen.json", "dad.json", "chain.json"])
def test_verify_re_derives_the_map_scalar_echoes(chain_dir, tmp_path, capsys, target, key, edit):
    # a stage file is verified alone, so only its own re-check reads the edit
    def tamper_map(params):
        params["map"][key] = edit(params["map"][key])

    alone = target != "chain.json"
    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=tamper_map, target=target,
        edited=[target] if alone else ["amen.json", "dad.json"], alone=alone,
    )
    if target == "dad.json" and key in DAD_MAP_ECHOES_NOT_RECHECKED:
        assert (code, out) == (0, "verified: dad-cover (pass)\n")
    else:
        assert code == 1
        assert DIFFERS_AT in out


GRAPH_FILES = (
    "cover.json", "rokhlin.json", "towerdim.json", "amen_pairs.json", "amen.json", "dad.json"
)


@pytest.mark.parametrize("target, builds", [
    ("chain.json", 1),
    *((name, 1) for name in GRAPH_FILES),
    ("lang.json", 0),
    ("special.json", 0),
    ("bounds.json", 0),
])
def test_verify_builds_one_arena(chain_dir, monkeypatch, target, builds):
    # a chain re-checks every graph-based file on cover.json's graph
    from shiftdim import pipeline

    calls = []
    build = pipeline.build_cover_graph
    monkeypatch.setattr(pipeline, "build_cover_graph", lambda *a: calls.append(a) or build(*a))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(chain_dir / target)]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("target, builds, message", [
    ("chain.json", 0, "stage rokhlin: rokhlin.json echoes k = 251, cover.json k = 250"),
    ("rokhlin.json", 1, "bad parameter: horizon 256 must be >= k + l = 257"),
])
def test_verify_checks_an_arena_tie_before_building_a_graph(
    chain_dir, tmp_path, capsys, monkeypatch, target, builds, message
):
    # a chain checks every tie before any re-check, so a tampered arena
    # echo builds no graph; a stage file is re-checked first, on the graph
    # its own echo names
    from shiftdim import pipeline

    calls = []
    build = pipeline.build_cover_graph
    monkeypatch.setattr(pipeline, "build_cover_graph", lambda *a: calls.append(a) or build(*a))

    def edit(params):
        params["k"] = 251

    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=edit, target=target, edited=["rokhlin.json"]
    )
    assert (code, out, len(calls)) == (1, f"verification failed: {message}\n", builds)


def test_verify_chain_names_the_cover_stage_for_a_bad_arena(chain_dir, tmp_path, capsys):
    # the one arena is built while cover.json is re-checked
    def edit(params):
        params["graph_horizon" if "graph_horizon" in params else "horizon"] = 3

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, edited=GRAPH_FILES)
    assert code == 1
    assert out == (
        "verification failed: stage cover: bad parameter: horizon 3 must be >= k + l = 256\n"
    )


@pytest.mark.parametrize("target", ["cover.json", "rokhlin.json"])
def test_verify_rejects_a_non_canonical_arena_echo(chain_dir, tmp_path, capsys, target):
    # "0 1" reads as the rule 01, but the re-check stamps the rebuilt graph's arena
    def edit(params):
        params["spec"]["rules"]["0"] = "0 1"

    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=edit, target=target, edited=["cover.json", "rokhlin.json"]
    )
    assert code == 1
    assert out == f"verification failed: {DIFFERS_AT} 'spec'\n"


@pytest.mark.parametrize("flags, echoed", [
    (["--q", "3"], "q = 3, len(cover.json special_states) = 1"),
    (["--q", "1", "--dim-x", "5"], "dim_x = 5, covering_dimension(cover.json spec) = 0"),
], ids=["q-3", "dim-x-5"])
def test_verify_chain_ties_bounds_to_the_cover(chain_dir, tmp_path, capsys, flags, echoed):
    # a genuine bounds certificate, but not for the q the chain's cover has
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    assert main(["bounds", *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "chain.json")]) == 1
    assert capsys.readouterr().out == (
        f"verification failed: stage bounds: bounds.json echoes {echoed}\n"
    )


def cut_one_base(params):
    params["phase_pair_bases"].pop()


def raise_span(params):
    params["phase_span"] += 7


@pytest.mark.parametrize("edit, message", [
    (cut_one_base, "phase_pair_bases other than amen_pairs.json pair_bases"),
    (raise_span, "phase_span = 239, span(amen_pairs.json pair_exponent_ranges) = 232"),
], ids=["cut-base", "span-plus-7"])
def test_verify_chain_ties_amen_to_its_pairs(chain_dir, tmp_path, capsys, edit, message):
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, edited=["amen.json"])
    assert code == 1
    assert out == f"verification failed: stage amen: amen.json echoes {message}\n"


def test_verify_names_the_file_a_tie_derivation_refuses(chain_dir, tmp_path, capsys):
    # amen.json is unchanged and passes its own re-check; the tie reads the
    # span of amen_pairs.json's ranges, which refuses a reversed one
    def reverse_first_range(params):
        params["pair_exponent_ranges"][0] = [5, 2]

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=reverse_first_range,
                            target="amen.json", edited=["amen_pairs.json"])
    assert (code, out) == (1, (
        "verification failed: stage amen: amen_pairs.json pair_exponent_ranges: "
        "exponent range [5, 2] is not [0, h-1] with h >= 1\n"
    ))


def lower_dad_epsilon(params):
    params["epsilon"] = "1/1000"


def map_echo(key, value):
    return lambda params: params["map"].update({key: value})


DAD_MAP_TIE = "stage dad: dad.json echoes map other than amen.json map"
# Edits that the edited file's own re-check accepts, so that only a tie to
# a file beside it catches them: ROADMAP item 2's three, two swapped map
# weights, and DAD_MAP_ECHOES_NOT_RECHECKED's two.  Each message names the
# stage and both keys.
TIED_BESIDE = {
    "amen-cut-base": ("amen.json", cut_one_base, "stage amen: amen.json echoes "
                      "phase_pair_bases other than amen_pairs.json pair_bases"),
    "amen-span-plus-7": ("amen.json", raise_span, "stage amen: amen.json echoes "
                         "phase_span = 239, span(amen_pairs.json pair_exponent_ranges) = 232"),
    "dad-epsilon-1/1000": ("dad.json", lower_dad_epsilon, "stage dad: dad.json echoes "
                           "epsilon = '1/1000', chain.json epsilon = '5/2'"),
    "dad-swapped-weights": ("dad.json", swap_two_weights, DAD_MAP_TIE),
    "dad-map-resolution": ("dad.json", map_echo("resolution", 31), DAD_MAP_TIE),
    "dad-map-epsilon-achieved": ("dad.json", map_echo("epsilon_achieved", "1/1000000"),
                                 DAD_MAP_TIE),
}


@pytest.mark.parametrize("case", TIED_BESIDE)
def test_verify_checks_the_ties_of_a_stage_file_beside_it(chain_dir, tmp_path, capsys, case):
    target, edit, message = TIED_BESIDE[case]
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target)
    assert (code, out) == (1, f"verification failed: {message}\n")


@pytest.mark.parametrize("case", TIED_BESIDE)
def test_verify_accepts_the_same_edits_in_a_file_alone(chain_dir, tmp_path, capsys, case):
    # with no file beside it, only the file's own re-check runs: the gap
    # that ROADMAP item 9's rebuild of the map from its pairs closes
    target, edit, _ = TIED_BESIDE[case]
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target=target, alone=True)
    kind = {"amen.json": "equivariance", "dad.json": "dad-cover"}[target]
    assert (code, out) == (0, f"verified: {kind} (pass)\n")


def tamper(value):
    """One fixed edit by the value's type: a boolean negated, an integer
    plus 1, a "p/q" string plus 1 and any other string with "x" appended,
    a list without its last member (or [0] for an empty one) and an object
    without its last key."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        try:
            plus_one = Fraction(value) + 1
        except (ValueError, ZeroDivisionError):
            return value + "x"
        return f"{plus_one.numerator}/{plus_one.denominator}"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    return {key: value[key] for key in sorted(value)[:-1]}


# (file, key) pairs whose tampered chain still verifies, each because the
# edited chain is still true
TAMPER_ALLOWED = {
    # normalize_window adjoins 0 and -E, so [-1, 0] names the window
    # [-1, 0, 1]: the chain `certify --window -1,0` writes is this one
    ("chain.json", "window_set"),
}


# (file, key) pairs whose tampered file still verifies by itself, with the
# other files of its chain beside it, each because the edited file is still
# true; the edits of phase_pair_bases, phase_span, dad.json's epsilon and
# map, which each file's own re-check accepts, fail on their ties
TAMPER_ALLOWED_ALONE = {
    # the chain that `certify --window -1,0` writes, as above
    ("chain.json", "window_set"),
}


def test_tamper_sweep(chain_dir, tmp_path):
    """Every stage file's every parameter, and the chain's, edited one at a
    time: ``verify chain.json`` fails unless the pair is allowed, and so
    does ``verify`` of the edited file, with its siblings beside it, unless
    the pair is allowed alone."""
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    verified, alone = set(), set()
    for path in sorted(out.glob("*.json")):
        text = path.read_text()
        for key in sorted(json.loads(text)["params"]):
            data = json.loads(text)
            data["params"][key] = tamper(data["params"][key])
            path.write_text(json.dumps(data))
            for target, passed in (("chain.json", verified), (path.name, alone)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["verify", str(out / target)])
                assert code in (0, 1), (target, path.name, key)
                if code == 0:
                    passed.add((path.name, key))
        path.write_text(text)
    assert verified == TAMPER_ALLOWED
    assert alone == TAMPER_ALLOWED_ALONE


def container_edits(value, path):
    """The container-type edits of ``value`` at ``path`` as (path,
    replacement): a JSON object or array replaced by the other container
    type, a string and an integer, then the same for every container it
    holds as an object value or as an array's first member."""
    if not isinstance(value, (dict, list)):
        return []
    edits = [(path, [] if isinstance(value, dict) else {}), (path, "x"), (path, 7)]
    members = value.items() if isinstance(value, dict) else enumerate(value[:1])
    for key, member in members:
        edits += container_edits(member, (*path, key))
    return edits


# (file, path, replacement) whose edited certificate still re-checks, each
# with the reason it is still true; there are none
CONTAINER_ALLOWED: set = set()


def test_container_type_sweep(chain_dir):
    """Every container in every file's params, down to the first member of
    each array, retyped one at a time: the in-process re-check fails each
    edit without an exception escaping, unless the edit is allowed."""
    arenas: dict = {}
    verified = set()
    edits = 0
    for path in sorted(chain_dir.glob("*.json")):
        text = path.read_text()
        for key, value in sorted(json.loads(text)["params"].items()):
            for where, replacement in container_edits(value, (key,)):
                data = json.loads(text)
                parent = data["params"]
                for step in where[:-1]:
                    parent = parent[step]
                parent[where[-1]] = replacement
                ok, why = recheck_certificate(Certificate.from_dict(data), str(chain_dir), arenas)
                edits += 1
                if ok:
                    verified.add((path.name, where, json.dumps(replacement)))
                else:
                    assert why, (path.name, where, replacement)
    assert edits > 200
    assert verified == CONTAINER_ALLOWED


# the witnesses that list integers: states, except dad.json's difference set F
INTEGER_LISTS = {
    "rokhlin.json": ("tower_bases",),
    "towerdim.json": ("pair_bases",),
    "amen_pairs.json": ("pair_bases",),
    "amen.json": ("orbit_window", "phase_pair_bases"),
    "dad.json": ("pieces", "orbit_states", "F"),
}


ALIAS_EDITS = ("duplicate", "plus-num-states", "minus-num-states", "swap", "bool")
# (file, key, edit) whose witness has no members for the edit: phase pair
# bases are single states
ALIAS_NOT_APPLICABLE = {
    ("amen_pairs.json", "pair_bases", "swap"),
    ("amen.json", "phase_pair_bases", "swap"),
}


def alias_edits(members, num_states):
    """Each of ``ALIAS_EDITS`` that names the same integers as a list of
    integers, or the same states of a ``num_states``-state graph to
    Python's indexing: a member listed twice, a member plus or minus
    ``num_states``, two members swapped, a 0 or 1 written as a boolean.
    Only the edits the list has members for."""
    edits = {}
    if members:
        edits["duplicate"] = [members[0], *members]
        edits["plus-num-states"] = [members[0] + num_states, *members[1:]]
        edits["minus-num-states"] = [members[0] - num_states, *members[1:]]
    if len(members) > 1:
        edits["swap"] = [members[1], members[0], *members[2:]]
    flag = next((i for i, m in enumerate(members) if m in (0, 1)), None)
    if flag is not None:
        edits["bool"] = [*members[:flag], bool(members[flag]), *members[flag + 1:]]
    return edits


def aliased(value, num_states):
    """``alias_edits`` of a list of integers, or of a list of lists, each
    edit made in the first member list it applies to."""
    if not (value and isinstance(value[0], list)):
        return alias_edits(value, num_states)
    out = {}
    for i, members in enumerate(value):
        for name, edited in alias_edits(members, num_states).items():
            out.setdefault(name, [*value[:i], edited, *value[i + 1:]])
    return out


def unreduce_a_weight(params):
    point = params["map"]["points"][0]
    atom = next(iter(point))
    num, den = point[atom].split("/")
    point[atom] = f"{2 * int(num)}/{2 * int(den)}"


def zero_pad_an_atom(params):
    point = params["map"]["points"][0]
    atom = next(iter(point))
    assert atom.isdigit()
    point["0" + atom] = point.pop(atom)


# (file verified, edit) pairs that still verify, each with the reason the
# edited certificate is still true; there are none
ALIAS_ALLOWED: set = set()


def test_alias_sweep(chain_dir, tmp_path):
    """Every integer-list witness edited to another spelling of the same
    integers, and a map weight and atom in amen.json and dad.json: each
    edit fails ``verify`` on every edited file and on ``chain.json``, as
    a failed verification, unless the pair is allowed."""
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    num_states = json.loads((out / "cover.json").read_text())["params"]["states"]
    edits = [
        (["amen.json", "dad.json"], "map-unreduced-weight", unreduce_a_weight),
        (["amen.json", "dad.json"], "map-zero-padded-atom", zero_pad_an_atom),
    ]
    not_applicable = set()
    for name, keys in INTEGER_LISTS.items():
        params = json.loads((out / name).read_text())["params"]
        for key in keys:
            found = aliased(params[key], num_states)
            not_applicable |= {(name, key, label) for label in ALIAS_EDITS if label not in found}
            for label, value in found.items():
                edits.append(([name], f"{key}-{label}", lambda p, k=key, v=value: p.update({k: v})))
    assert not_applicable == ALIAS_NOT_APPLICABLE
    verified = set()
    for names, label, edit in edits:
        texts = {name: (out / name).read_text() for name in names}
        for name, text in texts.items():
            data = json.loads(text)
            edit(data["params"])
            (out / name).write_text(json.dumps(data))
        for target in (*names, "chain.json"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["verify", str(out / target)])
            if code == 0:
                verified.add((target, label))
            else:
                assert code == 1 and stdout.getvalue().startswith("verification failed: "), (
                    target, label, stdout.getvalue()
                )
        for name, text in texts.items():
            (out / name).write_text(text)
    assert verified == ALIAS_ALLOWED


@pytest.mark.parametrize("key, value, why", [
    ("pair_kinds", "bogus", "pair kind 'bogus' is none of base, shifted and phase"),
    ("pair_origins", False, "pair origin False is not a nonnegative integer"),
], ids=["kind-bogus", "origin-false"])
@pytest.mark.parametrize("target", ["amen_pairs.json", "chain.json"])
def test_verify_refuses_pair_labels(chain_dir, tmp_path, capsys, key, value, why, target):
    # a pair kind is base, shifted or phase, and an origin a tower index
    def edit(params):
        params[key][0] = value

    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=edit, target=target, edited=["amen_pairs.json"]
    )
    assert code == 1
    assert out.endswith(f"missing or malformed witness: {why}\n")


@pytest.mark.parametrize("target", ["bounds.json", "chain.json"])
def test_verify_refuses_booleans_for_bounds(chain_dir, tmp_path, capsys, target):
    # true and false equal 1 and 0 in Python, but q and dim_x are integers
    def edit(params):
        params["q"], params["dim_x"] = True, False

    code, out = verify_copy(
        chain_dir, tmp_path, capsys, edit=edit, target=target, edited=["bounds.json"]
    )
    assert code == 1
    assert out.endswith("bad parameter: q True is not an integer\n")


def test_verify_chain_refuses_a_boolean_window_member(chain_dir, tmp_path, capsys):
    def edit(params):
        params["window_set"] = [-1, False, 1]

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit)
    assert code == 1
    assert out == (
        "verification failed: stage amen: chain.json window_set: "
        "[-1, False, 1] holds a non-integer\n"
    )


def _cover_dir(cfg, out_dir, depth, past_len):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "cover", "--config", cfg, "--depth", str(depth), "--past-len", str(past_len),
            "--out", str(out_dir),
        ]) == 0
    return out_dir


@pytest.mark.parametrize("depth, past_len, key", [(1, 3, "k"), (40, 1, "l")])
def test_verify_refuses_a_boolean_arena_size(fib_cfg, tmp_path, capsys, depth, past_len, key):
    # true equals 1 in Python, but the arena is rebuilt from integers only
    path = _cover_dir(fib_cfg, tmp_path / "out", depth, past_len) / "cover.json"
    data = json.loads(path.read_text())
    assert data["params"][key] == 1
    data["params"][key] = True
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"verification failed: bad parameter: {key} True is not an integer\n"
    )


def test_verify_refuses_a_boolean_for_every_integer_zero_or_one(
    chain_dir, fib_cfg, tmp_path, capsys
):
    # every params value 0 or 1 of the chain's files and of the depth-1
    # cover, made false or true, fails the file's re-check
    edits = []
    for source in (chain_dir, _cover_dir(fib_cfg, tmp_path / "cover", 1, 3)):
        for path in sorted(source.glob("*.json")):
            params = json.loads(path.read_text())["params"]
            edits += [
                (source, path.name, key)
                for key, value in params.items() if type(value) is int and value in (0, 1)
            ]
    edited = {(name, key) for _, name, key in edits}
    assert {("bounds.json", "q"), ("bounds.json", "dim_x"), ("cover.json", "k")} <= edited
    for j, (source, name, key) in enumerate(edits):
        work = tmp_path / f"edit{j}"
        shutil.copytree(source, work)
        data = json.loads((work / name).read_text())
        data["params"][key] = bool(data["params"][key])
        (work / name).write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(work / name)]) == 1, (name, key)
        assert capsys.readouterr().out.startswith("verification failed: "), (name, key)


def test_verify_refuses_a_float_for_every_integer(chain_dir, tmp_path, capsys):
    # 1.0 equals 1 in Python, but not as a JSON value: every integer params
    # value of the chain's files, written as the equal float, fails the
    # file's re-check without an exception escaping
    edits = []
    for path in sorted(chain_dir.glob("*.json")):
        params = json.loads(path.read_text())["params"]
        edits += [(path.name, key) for key, value in params.items() if type(value) is int]
    assert {("bounds.json", "q"), ("cover.json", "k"), ("amen.json", "d")} <= set(edits)
    for j, (name, key) in enumerate(edits):
        work = tmp_path / f"edit{j}"
        shutil.copytree(chain_dir, work)
        data = json.loads((work / name).read_text())
        data["params"][key] = float(data["params"][key])
        (work / name).write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(work / name)]) == 1, (name, key)
        out, err = capsys.readouterr()
        assert out.startswith("verification failed: ") and not err, (name, key)


def infinite_first_weight(params):
    point = params["map"]["points"][0]
    point[min(point)] = float("inf")


@pytest.mark.parametrize("target, edit", [
    ("amen.json", infinite_first_weight),
    ("dad.json", lambda params: params.update(epsilon=float("inf"))),
])
def test_verify_refuses_an_infinite_rational(chain_dir, tmp_path, capsys, target, edit):
    # json.loads reads Infinity as a float, which no Fraction can hold
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit, target=target)
    assert code == 1
    assert out == (
        "verification failed: missing or malformed witness: "
        "cannot convert Infinity to integer ratio\n"
    )


def test_failing_tower_pairs_name_their_clause(tmp_path, capsys):
    # Thue-Morse at depth 250: no margin witness for some state at N = 97
    path = tmp_path / "tm.cfg"
    path.write_text(TM_CFG)
    assert main(["amen", "--config", str(path), "--depth", "250", "--big-n", "97"]) == 1
    assert capsys.readouterr().err.startswith(
        "failed in stage amen: tower pairs must carry a passing certificate; "
        "failing clause (5)-margin-witness: state "
    )


def test_cover_names_unwitnessed_special_states(tmp_path, capsys):
    # Thue-Morse at depth 1500: two special states are the class of no
    # left special stored word
    path = tmp_path / "tm.cfg"
    path.write_text("variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 1 0\n")
    code = main(["cover", "--config", str(path), "--depth", "1500"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    clause = next(
        c for c in payload["clauses"]
        if c["name"] == "special-states-witnessed-by-left-special-words"
    )
    assert not clause["passed"]
    assert clause["witness"].startswith("no left special stored word for states [")


@pytest.mark.parametrize("text, reason", [
    ('{"kind": "cover-graph"', "Expecting ',' delimiter"),
    ('{"params": {}}', "no 'kind'"),
    ("[]", "not a JSON object"),
    ('{"kind": "cover-graph", "params": [], "clauses": [], "verdict": "pass"}',
     "'params' is not an object"),
    ('{"kind": "cover-graph", "params": {}, "clauses": [{"name": 1}], "verdict": "pass"}',
     "malformed clause"),
])
def test_verify_rejects_non_certificate(tmp_path, capsys, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["verify", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("verification failed: not a certificate: ")
    assert reason in out


def test_verify_chain_rejects_stage_params_not_object(chain_dir, tmp_path, capsys):
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    stage = out / "cover.json"
    data = json.loads(stage.read_text())
    data["params"] = []
    stage.write_text(json.dumps(data))
    code = main(["verify", str(out / "chain.json")])
    assert code == 1
    assert capsys.readouterr().out == (
        "verification failed: stage cover: cannot read cover.json: 'params' is not an object\n"
    )


TM_CFG = "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 1 0\n"


@pytest.mark.parametrize("big_n, code", [(None, 3), ("78", 3), ("79", 1)])
def test_big_n_too_small_names_least_n(tmp_path, capsys, big_n, code):
    # Thue-Morse at depth 250 has d = 11: (d+1)(d+2) = 156 needs N > 156/2
    path = tmp_path / "tm.cfg"
    path.write_text(TM_CFG)
    extra = [] if big_n is None else ["--big-n", big_n]
    assert main(["certify", "--config", str(path), "--depth", "250", *extra]) == code
    err = capsys.readouterr().err
    if code == 3:
        n = big_n or "37"
        assert err == (
            f"bad parameter in stage amen: (d+1)(d+2)/N = 156/{n} not below 2; "
            "N must be at least 79\n"
        )
    else:
        assert "bad parameter" not in err


def test_resolution_cycle_is_inconclusive(fib_cfg, capsys):
    # Fibonacci is aperiodic: the cover's 13-cycle is an artefact of depth 24
    assert main(["certify", "--config", fib_cfg]) == 2
    assert capsys.readouterr().err == (
        "inconclusive at this depth in stage rokhlin: cycle of length 13 within the 3N "
        "window (15); the resolution cannot support towers of this height; the shift has "
        "no periodic point of period <= 13, so the cycle is an artefact of the resolution\n"
    )


def test_verify_reads_a_failing_certificate_back(tmp_path, capsys):
    # the golden mean's complexity grows exponentially: its special report
    # fails, and its re-check reproduces the failing clause, which a passing
    # clause read back as passing would not
    path = tmp_path / "golden.cfg"
    path.write_text(SFT_CFG)
    out = tmp_path / "out"
    assert main(["special", "--config", str(path), "--depth", "12", "--out", str(out)]) == 1
    capsys.readouterr()
    assert main(["verify", str(out / "special.json")]) == 1
    assert capsys.readouterr().out == (
        "certificate is genuine but records verdict fail: "
        "superlinear-warning-absent: growth surrogate exceeded threshold\n"
    )


def test_real_periodic_cycle_fails(tmp_path, capsys):
    # the golden mean shift holds the fixed point 0^inf
    path = tmp_path / "golden.cfg"
    path.write_text(SFT_CFG)
    assert main(["certify", "--config", str(path), "--depth", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failed in stage rokhlin: cycle of length 1 within the 3N window")
    assert err.endswith(
        "the shift has a periodic point of period <= 1, so the cycle is a real periodic point\n"
    )



@pytest.mark.parametrize("flags, message", [
    # certify at the default depth 24: the cover's top is 2·24 + 6 + 1 long
    (
        ["certify", "--out", "out"],
        "cover: the length-55 language is p(55)·55 = 20098941288910 symbols, "
        "above the budget of 10000000",
    ),
    (
        ["lang", "--horizon", "30"],
        "lang: the length-30 language is p(30)·30 = 65349270 symbols, "
        "above the budget of 10000000",
    ),
], ids=["certify-default-depth", "lang-horizon-30"])
def test_sft_language_above_the_budget_exits_3_at_once(
    tmp_path, monkeypatch, capsys, flags, message
):
    """The golden mean's p(n) is counted on its graph before any word is
    listed; without the count, the default depth's listing ran out of
    memory."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "golden.cfg"
    path.write_text(SFT_CFG)
    start = time.perf_counter()
    assert main([flags[0], "--config", str(path), *flags[1:]]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"bad parameter in stage {message}\n"

@pytest.mark.parametrize("command, message", [
    # certify's first stage lists the language to the default horizon 20
    ("certify", "lang: the length-20 language is p(20)·20 = 20971520 symbols"),
    ("cover", "cover: the length-55 language is p(55)·55 = 1981583836043018240 symbols"),
])
def test_full_shift_language_above_the_budget_exits_3_at_once(
    tmp_path, monkeypatch, capsys, command, message
):
    """The full shift's p(n) = |A|ⁿ is checked against the budget the SFT
    uses before any word is listed; without the check, the default depth's
    listing ran out of memory."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "full.cfg"
    path.write_text("variant = full_shift\nalphabet = 0 1\n")
    start = time.perf_counter()
    assert main([command, "--config", str(path)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"bad parameter in stage {message}, above the budget of 10000000\n"
    )


@pytest.mark.parametrize("height, message", [
    # a built cover's 3·height lies below the shortest cycle, so within the
    # 257 states; the re-check walked every level, and ran out of memory
    (10**7, "missing or malformed witness: tower height 10000000 is above the 257 states"),
    (258, "missing or malformed witness: tower height 258 is above the 257 states"),
    (0, "bad parameter: tower height 0 must be >= 1"),
], ids=["ten-million", "states-plus-1", "zero"])
def test_verify_refuses_a_rokhlin_height_it_cannot_walk(
    chain_dir, tmp_path, capsys, height, message
):
    def edit(params):
        assert params["states"] == 257
        params["height"] = height

    start = time.perf_counter()
    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target="rokhlin.json")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == f"verification failed: {message}\n"


def _limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_verify_refuses_a_pair_range_it_cannot_walk(chain_dir, tmp_path):
    # no passing pair is taller than the 257 states; the re-check listed the
    # levels of a ten-million-high pair and ran out of memory
    out = tmp_path / "chain"
    shutil.copytree(chain_dir, out)
    path = out / "amen_pairs.json"
    data = json.loads(path.read_text())
    data["params"]["pair_exponent_ranges"][0] = [0, 10**7]
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftdim.__file__)))
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "shiftdim.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limited_address_space,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 1
    assert (run.returncode, run.stdout, run.stderr) == (1, (
        "verification failed: missing or malformed witness: "
        "exponent range [0, 10000000] is taller than the 257 states\n"
    ), "")


def test_verify_refuses_a_map_that_is_not_one_point_per_state(chain_dir, tmp_path, capsys):
    # on a horizon one longer the graph has a state the map has no point for
    def edit(params):
        params["graph_horizon"] += 1

    code, out = verify_copy(chain_dir, tmp_path, capsys, edit=edit, target="amen.json")
    assert (code, out) == (1, (
        "verification failed: missing or malformed witness: "
        "the map has 257 points, not one per state\n"
    ))


def test_amen_span_below_a_large_big_n_exits_2_at_once(fib_cfg, capsys):
    # the span is compared with the need before the 2·N·max|E| + 1 margin
    # window is listed; listing it first ran out of memory
    start = time.perf_counter()
    assert main(["amen", "--config", fib_cfg, "--depth", "250", "--big-n", "3000000"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "inconclusive at this depth in stage amen: usable span 232 below "
        "2*rise + cycle/pairs = 6000030; deepen the graph\n"
    )


def test_dad_exponent_bound_above_the_budget_exits_3_at_once(fib_cfg, capsys):
    # (bound + 1)·states image-set members are above the budget, so the
    # window is refused before its image table is built
    start = time.perf_counter()
    args = ["dad", "--config", fib_cfg, "--depth", "250", "--exponent-bound", "100000"]
    assert main(args) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "bad parameter in stage dad: exponent bound 100000: the image table holds at "
        "least 25700257 set members, above the budget of 10000000\n"
    )


def test_golden_mean_special_fails_with_the_superlinear_witness(tmp_path, capsys):
    # p(n) of the golden mean shift grows like the Fibonacci numbers, so
    # the growth surrogate flags it at depth 8 and the branch count has no
    # upper bound
    path = tmp_path / "golden.cfg"
    path.write_text(SFT_CFG)
    assert main(["special", "--config", str(path), "--depth", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "special-report"
    assert payload["verdict"] == "fail"
    assert payload["clauses"] == [
        {"name": "bound-consistency", "passed": True, "witness": "branch_upper=None bound=3"},
        {
            "name": "superlinear-warning-absent",
            "passed": False,
            "witness": "growth surrogate exceeded threshold",
        },
    ]
    assert payload["params"] == {
        "bound": 3,
        "branch_lower": 34,
        "branch_upper": None,
        "counts": [1, 2, 3, 5, 8, 13, 21, 34],
        "d_hat": "3/2",
        "depth": 8,
        "spec": {"alphabet": ["0", "1"], "forbidden": ["11"], "variant": "sft"},
        "stabilized": False,
    }


@pytest.mark.parametrize("command, flags, message", [
    ("rokhlin", ["--height", "0"], "rokhlin: tower height N = 0 must be >= 1"),
    (
        "amen", ["--depth", "250", "--big-n", "0"],
        "amen: (d+1)(d+2)/N = 72/0 not below 2; N must be at least 37",
    ),
    (
        "dad", ["--depth", "250", "--exponent-bound", "0"],
        "dad: exponent bound 0 below max |n| = 1 of the window set",
    ),
    ("cover", ["--depth", "0"], "cover: k = 0 and l = 6 must be >= 1"),
    ("cover", ["--past-len", "0"], "cover: k = 24 and l = 0 must be >= 1"),
    (
        "amen", ["--depth", "250", "--big-n", "-5"],
        "amen: (d+1)(d+2)/N = 72/-5 not below 2; N must be at least 37",
    ),
    (
        "towerdim", ["--depth", "60", "--height", "4"],
        "towerdim: cover height 4 != 2 + 3*max|E| = 5",
    ),
])
def test_bad_parameter_exits_3_naming_stage_and_bound(fib_cfg, capsys, command, flags, message):
    assert main([command, "--config", fib_cfg, *flags]) == 3
    assert capsys.readouterr().err == f"bad parameter in stage {message}\n"


def test_non_primitive_substitution_exits_3(tmp_path, capsys):
    path = tmp_path / "identity.cfg"
    path.write_text("variant = substitution\nalphabet = 0 1\nrule.0 = 0\nrule.1 = 1\n")
    assert main(["lang", "--config", str(path)]) == 3
    assert capsys.readouterr().err == "bad parameter in stage spec: substitution is not primitive\n"


@pytest.mark.parametrize("command, flag", [("special", "--depth"), ("certify", "--horizon")])
def test_report_depth_below_4_exits_3(fib_cfg, capsys, command, flag):
    assert main([command, "--config", fib_cfg, flag, "3"]) == 3
    assert capsys.readouterr().err == (
        "bad parameter in stage special: report depth 3 must be >= 4\n"
    )


def test_report_depth_4_passes(fib_cfg, capsys):
    assert main(["special", "--config", fib_cfg, "--depth", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["depth"] == 4 and payload["verdict"] == "pass"


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_language_horizon_below_1_exits_3(fib_cfg, capsys, horizon):
    assert main(["lang", "--config", fib_cfg, f"--horizon={horizon}"]) == 3
    assert capsys.readouterr().err == (
        f"bad parameter in stage lang: language horizon {horizon} must be >= 1\n"
    )


@pytest.mark.parametrize("command, edit, bound", [
    ("lang", {"n_max": 0, "p": []}, "language horizon 0 must be >= 1"),
    ("special", {"depth": 3}, "report depth 3 must be >= 4"),
])
def test_verify_applies_the_stage_bound(fib_cfg, tmp_path, capsys, command, edit, bound):
    # the re-check refuses the parameters the stage itself refuses
    out_dir = tmp_path / "out"
    assert main([command, "--config", fib_cfg, "--out", str(out_dir)]) == 0
    path = out_dir / f"{command}.json"
    data = json.loads(path.read_text())
    data["params"].update(edit)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"verification failed: bad parameter: {bound}\n"


# error class, stage, configuration, command line without --config, exit code
EXIT_TABLE = [
    (InvalidSpec, "lang", FIB_CFG, ["lang", "--horizon", "0"], 3),
    (NTooSmall, "amen", FIB_CFG, ["amen", "--depth", "250", "--big-n", "1"], 3),
    (HeightMismatch, "towerdim", FIB_CFG, ["towerdim", "--depth", "250", "--height", "4"], 3),
    (ConfigError, "spec", FIB_CFG + "horizon = 3\n", ["lang"], 3),
    (DepthInsufficient, "amen", FIB_CFG, ["amen", "--depth", "250", "--big-n", "1000000000"], 2),
    (PeriodicWitness, "rokhlin", "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\n"
     "rule.1 = 0 1\n", ["rokhlin", "--depth", "250"], 1),
    (TowerPairsInsufficient, "amen", FIB_CFG,
     ["amen", "--depth", "800", "--big-n", "30", "--epsilon", "5/2"], 1),
]


@pytest.mark.parametrize(
    "cls, stage, config, argv, code", EXIT_TABLE, ids=[row[0].__name__ for row in EXIT_TABLE]
)
def test_each_error_class_exits_with_its_code(
    tmp_path, capsys, monkeypatch, cls, stage, config, argv, code
):
    raised = []

    def recording(*args):
        try:
            return run_stages(*args)
        except ShiftDimError as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(shiftdim.cli, "run_stages", recording)
    path = tmp_path / "x.cfg"
    path.write_text(config)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == code
    assert raised == [cls]
    assert capsys.readouterr().err.startswith(f"{cls.outcome} in stage {stage}:")


def test_missing_config_file_is_a_stage_less_config_error(tmp_path, capsys):
    assert main(["lang", "--config", str(tmp_path / "none.cfg")]) == 3
    assert capsys.readouterr().err.startswith(f"{ConfigError.outcome}: cannot read config ")


def test_every_error_class_declares_an_exit_code():
    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, ShiftDimError)
    ]
    assert len(classes) > 1
    assert [cls.__name__ for cls in classes if cls.exit_code not in (1, 2, 3)] == []
