"""Golden bytes of the depth-250 Fibonacci chain and of a skew-window run.

Pins the sha256 of every file ``run_certify`` writes with criterion 15's
parameters, and checks that each CLI subcommand given the matching flags
writes the same bytes to ``--out``.  ``special --depth`` plays the role of
``certify --horizon``.  The pins were taken before the stage registry
replaced the hand-written stage dispatch, so a drift between the registry,
the subcommands and the certificate schema shows up here.

``SKEW_PINS`` covers the window E = {-2, 0, 3}, whose normalization is
not an integer interval.  Its pins were taken while the B-partition was
still built from the k-fold sumsets of the window, before the
breadth-first erosion pass replaced that construction.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from shiftdim.cli import main
from shiftdim.pipeline import PipelineParams, run_certify, run_stages

FIB_CFG = "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 0\n"

PINS = {
    "amen.json": "e15b77399cccb053d20fc061d03a581a2464f7b098a558e1a423e5b925c2281b",
    "amen_pairs.json": "4252576396f7b479b8f58a89bda595d9b9e6984e1522b229aa41e46c180d45bf",
    "bounds.json": "d4f1aa13f61b3cdac1440115392303d23b82e4eb4be6d9ce65e1a604cc46cb86",
    "chain.json": "b8b99d25235b9298462635f7a02f754bd009ac37ebeeb11a260c6ee6dd1da785",
    "cover.json": "4921858ea92297b339e155953f986b1b7660013781a4bdc9c7601c1853e8c905",
    "dad.json": "76b184cd578672f3a32ab2cc52c84f05972d9428a2eb3cd055b22b865c3c96e1",
    "lang.json": "e331ee9d3d9d4f916cb22f742f8c39d765debdb07b36645d094c6ceb157f2cdd",
    "language.csv": "37edf812120cd865c3a211c78d946f912d606d5853b3e09deea6115f490395c8",
    "rokhlin.json": "17b4ab22c2fccf4785a78c38cdbd50934886f3190938c483b1a378ac01095c42",
    "special.json": "dd2d7cb76978872759315b42304c8f51f349d8799b7380d7205fcbbaacf3c67f",
    "towerdim.json": "3c4be1aeda63a5b3767997dbd9f563165968e82136c9f9db68237916187b3f58",
    "window_elements.txt": "f8733ae0de71d5e6cc93119660b261640528c13c2b9578b19f97844644a53569",
    "words_0001.txt": "82c1315e6c757f33c4a77ca58b2a184f5a88614470c05ec77f3d28918db6b8ae",
    "words_0002.txt": "6af492e5c28e4e5a42b593d5ca8e849c0dd1a2b04c9e6bc22b1dd68dd52c4981",
    "words_0003.txt": "8eab04a7f552b4f138c77de82a2e72b4b889ac6c3893fef39368cb69817dc7d1",
    "words_0004.txt": "18888b3f6ff07d0eb9cd6742e19da6820760c990d5e9cf8c7fb649d78ef04b40",
    "words_0005.txt": "dc2f4d5247b44590141688e3f67c666668fa21b44d08dd359b7780776c3449a2",
    "words_0006.txt": "851af3ca9eeb66b46e0da452da71701e8de8fac9e520207907dc7c30759e19b9",
    "words_0007.txt": "991fd47f741fa469551e974f28dc3cad914de1eada49ff02cced07ff47644feb",
    "words_0008.txt": "7183515d2ef3c7e203d6b8d328198481117612c8b17de21a309ecdbe304ae56d",
    "words_0009.txt": "7beff499ef3eb7ec3c84e30fe14b0f91b3c4252ae2c78d5b7a63f573318a8eca",
    "words_0010.txt": "37ded0d5b2ddaf35af6ee28e6a76f7ea6245c986a17f91ab01091d36ac1edc2d",
    "words_0011.txt": "1d704693102f47155266aaa4294750aa68ee7dad13a7d153bc9b6ab86f898877",
    "words_0012.txt": "15fa1424c048b9024d4c9d8fa50b8052adc7a1f15bceec7d65166f6c3402a9dc",
    "words_0013.txt": "281c6bf0ef6e7b04490e727716fcebd8279c86a3a6a5c46128ca3e9815c31b2d",
    "words_0014.txt": "ed90b5c1cb1b03d8c305162de645178fe680efc8afc560da05ba6061b4e02d54",
    "words_0015.txt": "c5bbb1e4b82dc6b82a068080d4f294c2a62deda2ded6e42e82ae6953ed6f994a",
    "words_0016.txt": "454dfd473cbf38773d7cfecf61689527bd63af4c0e70cbdc5dd0ad52d5550891",
}

# in the order in which the chain's stages first read them
CHAIN_FLAGS = [
    "--depth=250", "--past-len=6", "--height=5", "--window=-1,0,1",
    "--big-n=30", "--epsilon=5/2", "--exponent-bound=2",
]

# subcommand -> (its flags besides --config and --out, the files it writes);
# each subcommand takes only the flags of the stages it runs
SUBCOMMANDS = {
    "lang": (["--horizon", "16"], ["lang.json", "language.csv"]
             + [f"words_{n:04d}.txt" for n in range(1, 17)]),
    "special": (["--depth", "16"], ["special.json"]),
    "cover": (CHAIN_FLAGS[:2], ["cover.json"]),
    "rokhlin": (CHAIN_FLAGS[:3], ["rokhlin.json"]),
    "towerdim": (CHAIN_FLAGS[:4], ["towerdim.json"]),
    "amen": (CHAIN_FLAGS[:6], ["amen_pairs.json", "amen.json"]),
    "dad": (CHAIN_FLAGS, ["dad.json", "window_elements.txt"]),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("chain")
    params = PipelineParams(
        config_text=FIB_CFG,
        out_dir=str(out),
        horizon=16,
        depth=250,
        past_len=6,
        height=5,
        window_set=(-1, 0, 1),
        big_n=30,
        epsilon=Fraction(5, 2),
        exponent_bound=2,
    )
    _, overall = run_certify(params)
    assert overall == "pass"
    return out


def test_certify_files_match_pins(chain_dir):
    written = {path.name: sha256(path) for path in chain_dir.iterdir()}
    assert written == PINS


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_matches_certify(command, chain_dir, tmp_path):
    cfg = tmp_path / "fib.cfg"
    cfg.write_text(FIB_CFG)
    out = tmp_path / "out"
    flags, files = SUBCOMMANDS[command]
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([command, "--config", str(cfg), *flags, "--out", str(out)])
    assert code == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(files)
    for name in files:
        assert (out / name).read_bytes() == (chain_dir / name).read_bytes(), name
    emitted = [name for name in files if name.endswith(".json")]
    assert stdout.getvalue() == "".join((out / name).read_text() for name in emitted)


def test_bounds_subcommand_matches_certify(chain_dir, tmp_path):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["bounds", "--q", "1", "--out", str(out)])
    assert code == 0
    assert (out / "bounds.json").read_bytes() == (chain_dir / "bounds.json").read_bytes()


SKEW_PINS = {
    "amen_pairs": "c94063b00d61db78f4cf3d8114b4e31beb998139caf799550e2c4a77ebe6c3d1",
    "amen": "58b13c53dbf3f56bd71f24d20685fe32f2b3e4277fd0b9cbd3be66cb5fa1e324",
    "dad": "1170dca889493875a0b0c1c2a18a5c0d901f538a5c51f6a29835e9e696f20c11",
}


def test_skew_window_certificates_match_pins():
    params = PipelineParams(
        config_text=FIB_CFG,
        depth=400,
        past_len=6,
        height=11,
        window_set=(-2, 0, 3),
        big_n=37,
        epsilon=Fraction(2),
        exponent_bound=3,
    )
    certs = run_stages(params, ["amen", "dad"])
    assert all(cert.passed for cert in certs.values())
    written = {
        name: hashlib.sha256(cert.canonical_json().encode()).hexdigest()
        for name, cert in certs.items()
    }
    assert written == SKEW_PINS
