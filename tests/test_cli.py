import json

import pytest

from fracbv.cli import main


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
