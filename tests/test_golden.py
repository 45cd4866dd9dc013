"""Byte identity of every subcommand's output at small fixed arguments.

Each case runs ``fracbv``, one or more steps, and compares the sha256 digest
of everything the steps write to stdout and of every ``--out``/``--grid-out``
file against the digest recorded for it.  Any change to an output byte fails
here; a change meant to move an output must record the new digests and say
why.

numpy picks its float64 ``power``, ``exp`` and ``expm1`` loops by CPU at run
time, and its AVX-512 loops differ from libm in the last bit on some inputs,
so the digests are computed in one child process (this file, run as a
script) with every runtime-dispatched SIMD target disabled: numpy then runs
its baseline loops, whose results do not depend on the CPU.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from fracbv.cli import main

PW = "pw:0:-0.3,0.5:0.2"
PW3 = "pw:0:-0.3,0.3:0.2,0.7:-0.5"

POWERLAW_PROFILE = ["family", "--p", "2", "--alpha", PW, "--N", "12", "--t", "2", "--samples", "8", "--out", "profile.csv"]
ASSP_PROFILE = [
    "family", "--kind", "assp", "--q", "3", "--alpha", "constant:-0.2", "--t0", "1", "--N", "6",
    "--t", "1.7", "--samples", "8", "--out", "profile.csv",
]

CASES = {
    "packet-csv": [["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", "0.05", "--samples", "8"]],
    "packet-json": [
        ["packet", "--p", "1.5", "--alpha", PW, "--dx", "0.1", "--delta", "0.5", "--t", "2", "--samples", "8", "--format", "json"]
    ],
    "riemann": [["riemann", "--p", "2", "--alpha", PW, "--wl", "1", "--wr", "-0.5", "--x0", "0.25", "--t", "1"]],
    "family-powerlaw-csv": [POWERLAW_PROFILE],
    "family-powerlaw-json": [
        ["family", "--p", "3", "--alpha", "constant:-0.2", "--N", "6", "--t", "0.5", "--samples", "8", "--format", "json"]
    ],
    "family-assp-csv": [ASSP_PROFILE],
    "family-assp-json": [
        ["family", "--kind", "assp", "--q", "2.5", "--t0", "0.8", "--N", "5", "--t", "0.6", "--samples", "8", "--format", "json"]
    ],
    "assp": [["assp", "--q", "3", "--alpha", PW3, "--t0", "1", "--N", "8"]],
    "variation-powerlaw": [POWERLAW_PROFILE, ["variation", "--s", "0.5", "--input", "profile.csv"]],
    "variation-assp": [ASSP_PROFILE, ["variation", "--s", "0.33", "--input", "profile.csv", "--out", "report.json"]],
    "diverge-powerlaw": [["diverge", "--p", "2", "--alpha", PW, "--s", "0.6", "--N", "12", "--t", "2"]],
    "diverge-assp": [
        ["diverge", "--kind", "assp", "--q", "3", "--alpha", "constant:-0.2", "--t0", "1", "--N", "6", "--s", "0.33", "--t", "1.7", "--out", "rows.csv"]
    ],
    "oracle-riemann": [
        ["oracle", "--p", "2", "--init", "riemann", "--wl", "1", "--wr", "-0.5", "--cells", "400", "--t", "0.5", "--out", "oracle.csv"]
    ],
    "oracle-packet": [
        ["oracle", "--p", "2", "--alpha", PW3, "--init", "packet", "--cells", "200", "--t", "0.2", "--out", "oracle.csv"]
    ],
    "oracle-family": [["oracle", "--p", "1.5", "--init", "family", "--N", "3", "--cells", "200", "--t", "1.5", "--out", "oracle.csv"]],
    "oracle-family-stdout": [["oracle", "--p", "2", "--init", "family", "--N", "2", "--cells", "64", "--t", "0.5"]],
    "triangular": [["triangular", "--p", "2", "--T", "1", "--t", "0.5", "--N", "8", "--sprime", "1", "0.5", "--dt-log2", "6"]],
    "kk": [
        ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--t", "0.5", "--res", "200", "--imax", "1", "--Ni", "20", "--grid-out", "grid.csv"]
    ],
    # more rows than one write slice of the CSV and JSON writers
    "family-powerlaw-csv-chunks": [["family", "--p", "2", "--alpha", PW, "--N", "200", "--t", "2", "--out", "profile.csv"]],
    "family-powerlaw-json-chunks": [["family", "--p", "2", "--alpha", PW, "--N", "40", "--t", "2", "--format", "json"]],
    "oracle-family-chunks": [["oracle", "--p", "2", "--init", "family", "--N", "6", "--cells", "4000", "--t", "1"]],
    "bound": [["bound", "--p", "2", "--alpha", PW, "--t", "1", "--a", "0", "--b", "1", "--T", "2", "--M", "1"]],
}

# recorded before the CSV writer and reader were rewritten, except "assp" and
# "family-assp-json": power-law cell states now come from the closed form
# a = -b = (width / (2 G_q(t0)))^(1/q) (with one Newton step) instead of a
# bisection, which moves some a and b by 1 ulp, and the profile values
# built on them; tau and every other case are unchanged.  The three "-chunks"
# cases were recorded before the writers wrote in row slices.  The "kk" stdout
# was re-recorded when bv_grid_norm's jump sums became correctly rounded: its
# bv_norm_u0_minus_b moved by one ulp; its grid.csv is unchanged.
# "family-assp-csv", "family-powerlaw-json", "oracle-family",
# "oracle-family-chunks", "oracle-family-stdout", "oracle-packet",
# "oracle-riemann", "packet-json" and "variation-assp" were re-recorded when
# the digests moved to numpy's baseline dispatch (their earlier digests held
# only under its AVX-512 loops); the X86_V2 and X86_V3 loops give the same
# bytes.  "bound" was re-recorded when speed_bound took its reach from max B
# over [0, T] (0.15 for this source) in place of sup|alpha| T (0.6).
GOLDEN = {
    "assp": {
        "stdout": "df0294997f7185f3cb0f70170c4577c138602f4f274456a987243203025fe985",
    },
    "bound": {
        "stdout": "3a2f8dbe96f878ad12d8a75e7bd3b31b4d0b149e0f448634ce37e6c208584faa",
    },
    "diverge-assp": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rows.csv": "cf98caf93440d2e530b3815fb4703802182a879672d60eb7e8db5c398656e741",
    },
    "diverge-powerlaw": {
        "stdout": "49641343c945fab88debfb4a4dd3f0640ee75736dd13cc905ac7fb4a9904318b",
    },
    "family-assp-csv": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.csv": "57353f4d8ae4c940b150cf0db213830ebd828a35c6c3bc9e1603b69c6098db66",
    },
    "family-assp-json": {
        "stdout": "85fffec6c5ea42e3740aac2797916274886653e70158d20848797126fc44b38c",
    },
    "family-powerlaw-csv": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.csv": "baff373f62294b83cca7e0cb6eda546241cf4907c49d56e717bca2679a89b2c7",
    },
    "family-powerlaw-csv-chunks": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.csv": "70efb9439a1ac65bd1f0466051974646740f79b0c16e892713425bbb8e5bb354",
    },
    "family-powerlaw-json": {
        "stdout": "077dbd13c1df42dfcdcfb5015c5327d8b327acba605200d4e6495b1c81e6a093",
    },
    "family-powerlaw-json-chunks": {
        "stdout": "633e52fc5c42b758e6b3c2379da39180fe6149d978c50888cc4f60907416f354",
    },
    "kk": {
        "stdout": "87e4fb95e9d624c1d73ce289eb974d9bbbb7c9778c3388d11fa3709e2198a0bf",
        "grid.csv": "986be98c96af67bb52e6096cef1efb675527b44942d5aacecb809a4ee30c29de",
    },
    "oracle-family": {
        "stdout": "15621e9a16e608def33bf75c7e589432cbf00e1b436ac1ce87a0461a0ca2e9f4",
        "oracle.csv": "da149727bbd34e31493c686634712f0f3680dbedb3a8fffc69a37772248ff7b1",
    },
    "oracle-family-chunks": {
        "stdout": "13237700ead4cc936646cd6da5dd1eeab9f5f47892d435dabd117f18fa3802fb",
    },
    "oracle-family-stdout": {
        "stdout": "53c5e337ed5deac5f5de7751af5aae73b40c4bc683aa55e6f6cfec993088640b",
    },
    "oracle-packet": {
        "stdout": "86da657682531d95af2ba7f6b18adbb07db9276389fc3c2ec79c98bacbc5b85d",
        "oracle.csv": "6e66740f0107c10e9277d9e071c4ae74d520b9895c06b48d23dd896af9dcaaab",
    },
    "oracle-riemann": {
        "stdout": "c9e95c20a5ffd347f19b2b0f2d1c82e161e32a422145d3e9944829204ba3962a",
        "oracle.csv": "ce0fe68623f8d560cbc1a9d1aaef3a51229ccff3d4269618f8c493cd6d3485d2",
    },
    "packet-csv": {
        "stdout": "9516450c581c1133d308cc51f3d4721270191b6bb227ea4b9c0c9c55f1abcc77",
    },
    "packet-json": {
        "stdout": "1af246eb607a2d3ad848ca2830c4758a1cc9d849a0dc5e6efcf04ce52131fc87",
    },
    "riemann": {
        "stdout": "3f15e3dfd99d437cb45ae0c7c1c3523db66440171ee5cb891896197051975b89",
    },
    "triangular": {
        "stdout": "4b5d232728b40186088efad3f758ba7704816e9c6967582acd71526c77425adf",
    },
    "variation-assp": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.csv": "57353f4d8ae4c940b150cf0db213830ebd828a35c6c3bc9e1603b69c6098db66",
        "report.json": "25a3d36b1a43e1732c9ba7ef53e573ab62a2cbe7c51bb4c08fb9d9e4d49ca1f5",
    },
    "variation-powerlaw": {
        "stdout": "88a1978951227a04ba76ab23551ce8b63ca2269d57c6db198717390d138fe2d2",
        "profile.csv": "baff373f62294b83cca7e0cb6eda546241cf4907c49d56e717bca2679a89b2c7",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(steps, directory) -> dict:
    """Run the steps in ``directory``; digests of the stdout and every output file."""
    stdout = io.StringIO()
    files = []
    for argv in steps:
        argv = list(argv)
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--out", "--grid-out", "--input"):
                if arg != "--input":
                    files.append(argv[i + 1])
                argv[i + 1] = str(directory / argv[i + 1])
        err = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            return {"error": f"{argv[0]} exited {code}: {err.getvalue()}"}
    digests = {"stdout": _sha(stdout.getvalue().encode())}
    digests.update({name: _sha((directory / name).read_bytes()) for name in files})
    return digests


def baseline_dispatch_env() -> dict:
    """This environment, with numpy's dispatched SIMD targets off and ``src`` importable."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def digests():
    """Every case's digests, from one child process at numpy's baseline dispatch."""
    child = subprocess.run(
        [sys.executable, __file__], env=baseline_dispatch_env(), capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, digests):
    assert digests[case] == GOLDEN[case]


if __name__ == "__main__":
    warnings.simplefilter("error")
    results = {}
    for case, steps in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as directory:
            results[case] = run_case(steps, Path(directory))
    print(json.dumps(results))
