"""Byte identity of every subcommand's output at small fixed arguments.

Each case runs ``fracbv`` in process, one or more steps, and compares the
sha256 digest of everything the steps write to stdout and of every
``--out``/``--grid-out`` file against the digest recorded for it.  Any
change to an output byte fails here; a change meant to move an output must
record the new digests and say why.
"""

import hashlib

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
GOLDEN = {
    "assp": {
        "stdout": "df0294997f7185f3cb0f70170c4577c138602f4f274456a987243203025fe985",
    },
    "bound": {
        "stdout": "90128ec6eef1cb9267df80a2f903c3c58a8c04a14087b04e4622d6d2526da493",
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
        "profile.csv": "acdb51dca8c30dc21e5ca7bf6fb8515d24c9f4c73bbcdd94d2a58c0dfadf36ed",
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
        "stdout": "217e455b80789d23b25e481ab8ff74b573f32a3bf97bdb87fc01b6e229c417a5",
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
        "oracle.csv": "bc3fc4a184c71c515136f47a9066c0c25bc988742d5700a859f8574d7fad5c06",
    },
    "oracle-family-chunks": {
        "stdout": "a58b466b0bc8a680779a0a8cee65f1f4459c64f6f864e3c4f3a23164fc1aafc6",
    },
    "oracle-family-stdout": {
        "stdout": "ae99a2c4582c035083ef4def6d5318267dc8651bf9bee760f03f0690cde4fd2a",
    },
    "oracle-packet": {
        "stdout": "034d1ec2aa0d0bc56979e21057443dc5dbfaae83f603974b31839af32230d9f6",
        "oracle.csv": "12936f422911f55acb03bb496737ddc8485c743b33b239fa35794eb19719f4eb",
    },
    "oracle-riemann": {
        "stdout": "bf1e9deba5f7c14c3ce174409b7616528a5ecc089490d9dd1e3461c513372861",
        "oracle.csv": "70883ef3e2a1e32e6b057682452d15fab71cf7c932c5df62ba02661d61d0e61e",
    },
    "packet-csv": {
        "stdout": "9516450c581c1133d308cc51f3d4721270191b6bb227ea4b9c0c9c55f1abcc77",
    },
    "packet-json": {
        "stdout": "dd9d661316e5b23687874d3ac2aff41314336a1ec7fe1d049e9cd5dbc13ae16a",
    },
    "riemann": {
        "stdout": "3f15e3dfd99d437cb45ae0c7c1c3523db66440171ee5cb891896197051975b89",
    },
    "triangular": {
        "stdout": "4b5d232728b40186088efad3f758ba7704816e9c6967582acd71526c77425adf",
    },
    "variation-assp": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "profile.csv": "acdb51dca8c30dc21e5ca7bf6fb8515d24c9f4c73bbcdd94d2a58c0dfadf36ed",
        "report.json": "25a3d36b1a43e1732c9ba7ef53e573ab62a2cbe7c51bb4c08fb9d9e4d49ca1f5",
    },
    "variation-powerlaw": {
        "stdout": "88a1978951227a04ba76ab23551ce8b63ca2269d57c6db198717390d138fe2d2",
        "profile.csv": "baff373f62294b83cca7e0cb6eda546241cf4907c49d56e717bca2679a89b2c7",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(steps, directory, capsys) -> dict:
    """Run the steps in ``directory``; digests of the stdout and every output file."""
    stdout = []
    files = []
    for argv in steps:
        argv = list(argv)
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--out", "--grid-out", "--input"):
                if arg != "--input":
                    files.append(argv[i + 1])
                argv[i + 1] = str(directory / argv[i + 1])
        assert main(argv) == 0, capsys.readouterr().err
        stdout.append(capsys.readouterr().out)
    digests = {"stdout": _sha("".join(stdout).encode())}
    digests.update({name: _sha((directory / name).read_bytes()) for name in files})
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path, capsys):
    assert run_case(CASES[case], tmp_path, capsys) == GOLDEN[case]
