import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracbv import cli
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


def test_oracle_takes_no_meeting_time(capsys):
    # oracle builds only power-law families, which have no t0
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--p", "2", "--init", "family", "--N", "2", "--cells", "64", "--t", "0.5", "--t0", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t0 1" in capsys.readouterr().err


def test_packet_takes_no_kind(capsys):
    # packet's kind is a parser default for the shared cell builder, not an option
    with pytest.raises(SystemExit) as exc:
        main(["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", "0.5", "--kind", "assp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kind assp" in capsys.readouterr().err


def float_options():
    """(argv, action) for every float option of every subcommand, read from
    the parser itself: argv names the command and its other required options."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        required = [a for a in parser._actions if a.required]
        for action in parser._actions:
            if action.type is not cli._finite_float:
                continue
            argv = [command]
            for other in required:
                if other is not action:
                    value = other.choices[0] if other.choices else "0.5" if other.type is cli._order else "2"
                    argv += [other.option_strings[0], value]
            yield pytest.param(argv, action, id=f"{command} {action.option_strings[0]}")


@pytest.mark.parametrize("argv, action", float_options())
@pytest.mark.parametrize("text", ["-1e5", "-.5E-3"])
def test_negative_floats_in_exponent_form_are_numbers(argv, action, text):
    options = cli.build_parser().parse_args(argv + [action.option_strings[0], text])
    value = float(text)
    assert getattr(options, action.dest) == ([value] if action.nargs == "+" else value)


@pytest.mark.parametrize("argv, action", float_options())
@pytest.mark.parametrize("text", ["-inf", "-NaN"])
def test_negative_infinity_is_refused_as_a_number(argv, action, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + [action.option_strings[0], text])
    assert exc.value.code == 2
    assert f"must be a finite number, got {text!r}" in capsys.readouterr().err


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
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert err["error"].startswith("the effective time G_p(t)")
    assert "overflows float64 at max B = 1000" in err["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--p", "2", "--N", "3", "--t", "1"],
        ["packet", "--p", "2", "--dx", "0.1", "--delta", "0.5", "--t", "1"],
        ["diverge", "--p", "2", "--s", "0.5", "--N", "3"],
        ["riemann", "--p", "2", "--wl", "1", "--wr", "0", "--t", "1"],
        ["assp", "--p", "2", "--N", "3"],
        ["oracle", "--p", "2", "--init", "packet", "--cells", "100", "--t", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_effective_time_overflow_exits_numerical(argv, capsys, tmp_path):
    out = str(tmp_path / "out")
    assert main([*argv, "--alpha", "constant:1000", "--out", out]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert err["error"].startswith("the effective time G_p(t)")
    assert "overflows float64 at p = 2, t = 1, max B = 1000" in err["error"]


@pytest.mark.parametrize("init", ["packet", "family"])
def test_oracle_builds_its_reference_before_the_solve(init, capsys, tmp_path, monkeypatch):
    # G_2(1) overflows at alpha = 1000; the solve would step for minutes first
    def solve(*args):
        raise AssertionError("godunov_solve ran before the reference was built")

    monkeypatch.setattr(cli.godunov, "godunov_solve", solve)
    argv = ["oracle", "--p", "2", "--alpha", "constant:1000", "--init", init, "--t", "1", "--cells", "4000"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith("the effective time G_p(t)")


def test_effective_time_past_expm1_range_is_finite(capsys, tmp_path):
    # G_2(0.895) at alpha = 400 is about e^716 / 1600: expm1(716) overflows, G_2 does not
    out = tmp_path / "rows.csv"
    argv = ["diverge", "--p", "2", "--alpha", "constant:400", "--s", "0.6", "--N", "3", "--t", "0.895"]
    assert main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,bound,cumulative" and len(lines) == 4
    assert all(math.isfinite(float(cell)) for line in lines[1:] for cell in line.split(","))


def test_real_effective_time_overflow_keeps_its_message(capsys, tmp_path):
    argv = ["diverge", "--p", "2", "--alpha", "constant:720", "--s", "0.5", "--N", "3", "--t", "0.99"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert json.loads(capsys.readouterr().err)["error"].startswith("the effective time G_p(t)")


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--N", "3"],
        ["packet", "--dx", "0.1", "--delta", "0.5"],
        ["diverge", "--s", "0.5", "--N", "3"],
        ["riemann", "--wl", "1", "--wr", "0"],
        ["oracle", "--init", "packet", "--cells", "100"],
        ["oracle", "--init", "family", "--cells", "100"],
        ["oracle", "--init", "riemann", "--wl", "1", "--wr", "0", "--cells", "100"],
    ],
    ids=["family", "packet", "diverge", "riemann", "oracle-packet", "oracle-family", "oracle-riemann"],
)
def test_growth_factor_overflow_exits_numerical(argv, capsys, tmp_path):
    # G_1(0.7125) = (e^712.5 - 1) / 1000 fits in float64, but e^(B(t)) = e^712.5 does not
    out = str(tmp_path / "out")
    assert main([*argv, "--p", "1", "--alpha", "constant:1000", "--t", "0.7125", "--out", out]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    if argv[:3] == ["oracle", "--init", "riemann"]:  # the oracle's domain needs the speed bound, e^(max B) = e^(B(t)) here
        assert err["error"].startswith("the speed bound") and err["error"].endswith("at max B = 712.5")
    else:
        assert err["error"] == "the growth factor e^(B(t)) overflows float64 at t = 0.7125, B(t) = 712.5"


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
        # T + 1 rounds to T, so the first pulse would form at the horizon
        ["triangular", "--p", "2", "--T", "1e17", "--t", "1e17", "--N", "5", "--sprime", "1"],
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


@pytest.mark.parametrize("command", [["packet", "--t", "0.5"], ["oracle", "--init", "packet", "--t", "0.1", "--cells", "100"]])
@pytest.mark.parametrize("center,dx", [("1e308", "0.1"), ("1e16", "1"), ("1e308", "1e308"), ("-1e308", "1e308")])
def test_packet_support_lost_to_rounding_or_overflow_exits_config(command, center, dx, capsys):
    # the ends round onto the center, or past float64: nothing to lay out
    argv = [command[0], "--p", "2", "--delta", "0.5", f"--center={center}", "--dx", dx, *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["kind"] == "config" and "finite support" in error["error"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["riemann", "--p", "2", "--wl", "1", "--wr", "-1", "--t", "1"],
        ["assp", "--q", "3", "--N", "3"],
        ["bound", "--p", "2", "--t", "1", "--a", "0", "--b", "1", "--T", "1"],
    ],
)
def test_format_only_on_profile_commands(argv, capsys):
    # only packet and family write a profile whose format can be chosen
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


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


# the writers' whole-text formulas, kept as the reference for their bytes
def csv_text(header, columns):
    cells = [map(repr, np.asarray(column).tolist()) for column in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def profile_json_text(xs, us):
    payload = {"schema": cli.SCHEMA, "x": xs.tolist(), "u": us.tolist()}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5]
ROW_COUNTS = [0, 1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1, 3 * cli.CHUNK_ROWS + 7]


def table(rows):
    """An integer column, a random column spanning many decades, and one
    of the edge values (with nan, which CSV writes as ``nan``)."""
    rng = np.random.default_rng(rows)
    spread = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    return [np.arange(rows), spread, np.resize(np.array(EDGE_VALUES + [math.nan]), rows)]


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_csv_writer_gives_the_bytes_of_the_whole_text(rows, tmp_path, capsys):
    header, columns = ["n", "x", "u"], table(rows)
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), header, columns)
    assert path.read_bytes() == csv_text(header, columns).encode()
    cli._write_csv(None, header, columns)
    assert capsys.readouterr().out == csv_text(header, columns)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_profile_json_writer_gives_the_bytes_of_json_dumps(rows, tmp_path, capsys):
    _, xs, _ = table(rows)
    us = np.resize(np.array(EDGE_VALUES), rows)
    path = tmp_path / "profile.json"
    cli._write_profile_json(str(path), xs, us)
    assert path.read_bytes() == profile_json_text(xs, us).encode()
    cli._write_profile_json(None, xs, us)
    assert capsys.readouterr().out == profile_json_text(xs, us)


@pytest.mark.parametrize("to_file", [True, False])
def test_non_finite_profile_json_exits_numerical_and_writes_nothing(to_file, monkeypatch, tmp_path, capsys):
    nan_profile = types.SimpleNamespace(xs=np.array([0.0, 1.0]), vs=np.array([0.5, math.nan]))
    monkeypatch.setattr(cli.variation, "sample_profile", lambda *args, **kwargs: nan_profile)
    out = tmp_path / "profile.json"
    argv = ["family", "--p", "2", "--N", "2", "--t", "1", "--format", "json"]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err)["kind"] == "numerical"
    assert captured.out == ""
    assert not out.exists()


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    # the whole text of 2e5 rows is tens of MiB; slices keep the peak flat
    rng = np.random.default_rng(0)
    columns = [np.sort(rng.standard_normal(200_000)), rng.standard_normal(200_000)]
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "table.csv"), ["x", "u"], columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kk_grid_is_written_in_slices(tmp_path):
    # the dense grid, built as whole columns, is the reference; slicing it
    # from the distinct rows keeps the writer's peak below their 2.5 MiB
    from fracbv import keyfitz_kranzer as kk

    setup = kk.KKSetup(p=2.0, delta=0.1, n=1, i_max=1)
    eta, omega, rows = kk.build_initial_data(setup, 256)
    centers, _ = kk.grid_axes(setup, 256)
    dense = [
        np.tile(centers, centers.size),
        np.repeat(centers, centers.size),
        eta[rows].ravel(),
        omega[rows, :, 0].ravel(),
        omega[rows, :, 1].ravel(),
    ]
    header = ["x", "y", "eta", "wx", "wy"]
    want = csv_text(header, dense).encode()
    del dense
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        cli._write_csv_slices(str(path), header, cli._grid_slices(centers, eta, omega, rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == want
    assert peak < 2**20
