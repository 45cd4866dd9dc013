import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fracbv.cli import RunConfig, dispatch, main


def oracle(capsys, tmp_path, *args):
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--p", "2", "--init", "riemann", *args, "--t", "1", "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured, out


def test_oracle_riemann_with_source_compares_on_a_window(capsys, tmp_path):
    # the window must allow for the source growth of the wave speeds
    errors = []
    for cells in ("1000", "4000"):
        code, captured, _ = oracle(
            capsys, tmp_path, "--alpha", "constant:-0.5", "--wl", "1", "--wr", "-0.5", "--cells", cells
        )
        assert code == 0
        (report,) = json.loads(captured.out)["errors"]
        lo, hi = report["window"]
        assert -hi == lo < 0.0 < hi
        errors.append(report["l1_error"])
    assert 0.0 < errors[1] < errors[0]


def test_oracle_riemann_coarse_mesh_has_no_window(capsys, tmp_path):
    code, captured, out = oracle(capsys, tmp_path, "--cells", "64")
    assert code == 3
    assert json.loads(captured.err)["kind"] == "numerical"
    assert "empty comparison window" in json.loads(captured.err)["error"]
    assert not out.exists()


def test_threads_option_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["assp", "--q", "3", "--N", "3", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--p", "2", "--init", "packet", "--t", "nan", "--cells", "100"],
        ["oracle", "--p", "2", "--init", "packet", "--t", "1", "--delta", "inf", "--cells", "100"],
        ["riemann", "--p", "2", "--wl", "nan", "--wr", "0", "--t", "1"],
        ["triangular", "--p", "2", "--T", "1", "--t", "0.5", "--N", "4", "--sprime", "1", "inf"],
        ["bound", "--p", "x", "--t", "1", "--a", "0", "--b", "1", "--T", "1"],
    ],
)
def test_non_finite_float_option_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_result_is_not_written_as_json(capsys):
    # past argparse, a NaN that reaches the JSON writer is a numerical error
    config = RunConfig(
        command="riemann",
        options={"p": 2.0, "alpha": "zero", "wl": math.nan, "wr": 0.0, "x0": 0.0, "t": 1.0},
        out=None,
        format="csv",
    )
    assert dispatch(config) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "numerical"


def test_bound_overflow_exits_numerical(capsys):
    code = main(["bound", "--p", "2", "--alpha", "constant:1000", "--t", "1", "--a", "0", "--b", "1", "--T", "1"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "numerical"


def test_variation_of_empty_file_exits_numerical(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["variation", "--s", "0.5", "--input", str(empty)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "empty profile file"


def test_non_finite_alpha_is_a_config_error(capsys):
    assert main(["riemann", "--p", "2", "--alpha", "constant:nan", "--wl", "1", "--wr", "0", "--t", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--p", "2", "--N", "0", "--t", "1"],
        ["family", "--p", "2", "--N", "-3", "--t", "1"],
        ["family", "--p", "2", "--N", "2.5", "--t", "1"],
        ["assp", "--q", "3", "--N", "0"],
        ["diverge", "--p", "2", "--s", "0.5", "--N", "0"],
        ["oracle", "--p", "2", "--init", "family", "--N", "0", "--t", "1", "--cells", "100"],
        ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--t", "0.5", "--res", "0"],
    ],
)
def test_non_positive_count_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["diverge", "--p", "2", "--s", "0", "--N", "3"],
        ["diverge", "--p", "2", "--s", "1.5", "--N", "3"],
        ["variation", "--s", "0", "--input", "profile.csv"],
    ],
)
def test_order_outside_unit_interval_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "order must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["riemann", "--p", "0.5", "--wl", "1", "--wr", "0", "--t", "1"],
        ["oracle", "--p", "2", "--init", "packet", "--t", "0.1", "--cells", "4"],
        ["bound", "--p", "2", "--t", "1", "--a", "0", "--b", "1", "--T", "1", "--M", "0"],
        ["assp", "--q", "3", "--N", "3", "--t0", "0"],
        ["assp", "--q", "3", "--N", "3", "--t0", "-1"],
        ["family", "--p", "2", "--N", "3", "--t", "0"],
        ["diverge", "--p", "2", "--s", "0.5", "--N", "3", "--t", "0"],
        ["riemann", "--p", "2", "--wl", "0", "--wr", "1", "--t", "1"],
        ["triangular", "--p", "2", "--T", "1", "--t", "0.5", "--N", "0", "--sprime", "1"],
        ["triangular", "--p", "2", "--T", "0", "--t", "0", "--N", "3", "--sprime", "1"],
        ["kk", "--p", "2", "--delta", "0.1", "--n", "0", "--t", "0.5", "--res", "8"],
        ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--imax", "0", "--t", "0.5", "--res", "8"],
        ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--t", "0.5", "--res", "8", "--Ni", "-1"],
        ["triangular", "--p", "0.5", "--T", "1", "--t", "0.5", "--N", "3", "--sprime", "1"],
        ["triangular", "--p", "2", "--T", "1", "--t", "2", "--N", "3", "--sprime", "1"],
        ["triangular", "--p", "2", "--T", "1", "--t", "-1", "--N", "3", "--sprime", "1"],
        ["triangular", "--p", "2", "--T", "1", "--t", "0.5", "--N", "3", "--sprime", "1.5"],
        ["triangular", "--p", "2", "--T", "1", "--t", "0.5", "--N", "3", "--sprime", "0"],
        ["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", "-1"],
        ["oracle", "--p", "2", "--init", "packet", "--cells", "100", "--t", "0"],
        ["packet", "--p", "2", "--dx", "-1", "--delta", "0.5", "--t", "1"],
        ["bound", "--p", "2", "--t", "2", "--a", "0", "--b", "1", "--T", "1"],
        ["bound", "--p", "2", "--t", "1", "--a", "1", "--b", "0", "--T", "1"],
        ["riemann", "--p", "2", "--wl", "1", "--wr", "-1", "--t", "-1"],
    ],
)
def test_validation_errors_exit_config(argv, capsys):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "config"


@pytest.mark.parametrize(
    "text",
    [
        "x,u\n",
        "x,u\n0.0,1.0\n0.5\n1.0,2.0\n",
        "x,u\n0.0,1.0\n0.5,1.0,3.0\n",
        "x,u\n0.0,abc\n",
        "a,b\n0.0,1.0\n",
    ],
)
def test_malformed_profile_csv_exits_numerical(text, capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak either
        assert main(["variation", "--s", "0.5", "--input", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "numerical"


@pytest.mark.parametrize(
    "text",
    [
        "x,u\n0,1e308\n1,-1e308\n2,1e308\n",  # a difference overflows
        "x,u\n0,1e200\n1,-1e200\n",  # a power overflows
        "x,u\n0,5e153\n1,-5e153\n2,5e153\n3,-5e153\n",  # a sum overflows
    ],
)
def test_overflowing_profile_exits_numerical(text, capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak either
        assert main(["variation", "--s", "0.5", "--input", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert "not finite in float64" in err["error"]


@pytest.mark.parametrize("samples", ["-4", "0", "1", "2.5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--p", "2", "--N", "3", "--t", "1"],
        ["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", "0.05"],
    ],
)
def test_too_few_samples_rejected(argv, samples, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--samples", samples])
    assert exc.value.code == 2
    assert "integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "t, center",
    [
        # the fan edges move less than an ulp, so a fan region has zero
        # width and its nudged right end lies below its left end
        ("1e-30", "0.3"),
        # a fan at the origin whose sampling step underflows
        ("1e-323", "0.1"),
    ],
)
def test_zero_width_fan_region_is_sampled(t, center, capsys):
    argv = ["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", t, "--samples", "8", "--center", center]
    assert main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    xs, us = zip(*(map(float, line.split(",")) for line in lines))
    assert header == "x,u"
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert us == (0.0, 0.5, -0.5, -0.5, 0.0)


REJECTED = ["family", "--p", "2", "--N", "3", "--t", "1", "--samples", "1"]
VALID = ["family", "--p", "2", "--alpha", "pw:0:-0.3,0.5:0.2", "--N", "4", "--t", "2", "--samples", "8"]


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_reused_parser_gives_the_bytes_of_a_fresh_process():
    # main builds the parser once per process; a rejected argv must leave
    # nothing behind that changes the next call
    both = run_python(
        "-c",
        "import sys\n"
        "from fracbv.cli import main\n"
        "try:\n"
        f"    main({REJECTED!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2\n"
        f"sys.exit(main({VALID!r}))\n",
    )
    rejected = run_python("-m", "fracbv.cli", *REJECTED)
    valid = run_python("-m", "fracbv.cli", *VALID)
    assert (rejected.returncode, valid.returncode, both.returncode) == (2, 0, 0)
    assert both.stderr == rejected.stderr and b"integer >= 2" in both.stderr
    assert both.stdout == valid.stdout and valid.stdout.startswith(b"x,u\n")
