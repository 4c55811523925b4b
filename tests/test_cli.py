"""Command-line interface: band parsing, reduce/analyze flows, exit codes,
and CSV output contracts."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from bandmor import FrequencyBand, StateSpaceModel, write_model
from bandmor.cli import main, parse_band
from bandmor.exceptions import OverlapError, ParseError

from conftest import REPO_ROOT
from _oracles import rand_resonant_model

MODEL = REPO_ROOT / "models" / "two_mode_series.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParseBand:
    def test_single_interval(self):
        assert parse_band("0:1.7") == FrequencyBand([(0.0, 1.7)])

    def test_passband(self):
        assert parse_band("1.5:3.2") == FrequencyBand([(1.5, 3.2)])

    def test_union(self):
        assert parse_band("0:1.7,3:4") == FrequencyBand([(0.0, 1.7), (3.0, 4.0)])

    def test_unbounded(self):
        band = parse_band("0:inf")
        assert not band.is_bounded

    def test_reversed_rejected(self):
        with pytest.raises(ParseError):
            parse_band("2:1")

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            parse_band("0:2,1:3")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_band("fast:slow")
        with pytest.raises(ParseError):
            parse_band("1.0")


class TestReduce:
    def test_all_methods_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:1.7", "--out-dir", str(out), "--respgrid", "50",
        ])
        assert code == 0
        rows = {r["method"]: r for r in read_csv(out / "metrics.csv")}
        assert set(rows) == {"hankel", "gawronski", "modgawronski", "proposed"}
        assert float(rows["gawronski"]["h2w_error"]) == pytest.approx(
            9.14e-2, rel=0.05
        )
        assert float(rows["proposed"]["h2w_error"]) <= float(
            rows["gawronski"]["h2w_error"]
        )
        assert int(rows["proposed"]["iterations"]) > 0
        assert rows["hankel"]["iterations"] == ""
        for name in ("hankel", "gawronski", "modgawronski", "proposed"):
            assert (out / f"model_{name}.json").exists()
            assert (out / f"response_{name}.csv").exists()
            assert (out / f"error_{name}.csv").exists()
        assert (out / "response_given.csv").exists()
        resp = read_csv(out / "response_given.csv")
        assert list(resp[0]) == ["omega_rad_s", "mag_y1u1"]
        # grid endpoint included
        assert float(resp[-1]["omega_rad_s"]) == pytest.approx(1.7)

    def test_hankel_only_unbounded_band(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:inf", "--methods", "hankel",
            "--out-dir", str(out), "--respgrid", "0",
        ])
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 1 and rows[0]["method"] == "hankel"

    def test_malformed_band_exits_one(self, tmp_path, capsys):
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "1.7:0", "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "band" in capsys.readouterr().err

    def test_missing_model_exits_one(self, tmp_path, capsys):
        code = main([
            "reduce", "--model", str(tmp_path / "nope.json"), "--order", "2",
            "--band", "0:1",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_order_exits_one(self, tmp_path, capsys):
        code = main([
            "reduce", "--model", str(MODEL), "--order", "9",
            "--band", "0:1.7", "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "order" in capsys.readouterr().err

    def test_unstable_method_exits_two_with_dashes(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rand_resonant_model(rng, 6, 1, 1)
        mpath = tmp_path / "resonant.json"
        write_model(g, mpath)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "reduce", "--model", str(mpath), "--order", "2",
                "--band", "0.5:1.5", "--methods", "gawronski",
                "--out-dir", str(out), "--respgrid", "0",
            ])
        assert code == 2
        row = read_csv(out / "metrics.csv")[0]
        assert row["h2w_error"] == "--"
        assert row["h2w_relative"] == "--"
        assert row["hinfw_relative"] == "--"
        assert float(row["max_real_eig"]) > 0

    def test_mask_file(self, tmp_path):
        from bandmor import gawronski_reduce, read_model

        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps({
            "maskA": [[1, 0], [1, 1]],
            "maskB": [[1], [1]],
            "maskC": [[1, 1]],
            "maskD": [[0]],
        }))
        out = tmp_path / "out"
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:1.7", "--methods", "proposed",
            "--init", "gawronski",
            "--mask", str(mask_path), "--out-dir", str(out),
            "--respgrid", "0",
        ])
        assert code == 0
        ghat = read_model(out / "model_proposed.json")
        init = gawronski_reduce(read_model(MODEL), 2,
                                FrequencyBand([(0.0, 1.7)]))
        # pinned entries carry the init values through unchanged
        assert ghat.A[0, 1] == init.A[0, 1]
        assert ghat.D[0, 0] == init.D[0, 0]

    def test_bad_mask_exits_one(self, tmp_path, capsys):
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps({"maskA": [[1]]}))
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:1.7", "--methods", "proposed",
            "--mask", str(mask_path), "--out-dir", str(tmp_path),
        ])
        assert code == 1
        assert "maskB" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [5, [1, 2]], ids=["number", "array"])
    def test_mask_not_an_object_exits_one(self, tmp_path, capsys, payload):
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps(payload))
        code = main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:1.7", "--methods", "proposed",
            "--mask", str(mask_path), "--out-dir", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "expected a JSON object" in err

    def test_metrics_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main([
                "reduce", "--model", str(MODEL), "--order", "2",
                "--band", "0:1.7", "--methods", "gawronski,proposed",
                "--out-dir", str(out), "--respgrid", "25",
            ])
            outs.append(out)
        rows_a = read_csv(outs[0] / "metrics.csv")
        rows_b = read_csv(outs[1] / "metrics.csv")
        for ra, rb in zip(rows_a, rows_b):
            for key in ("h2w_error", "h2w_relative", "hinfw_relative",
                        "max_real_eig", "iterations"):
                assert ra[key] == rb[key]
        assert (outs[0] / "response_proposed.csv").read_text() == (
            outs[1] / "response_proposed.csv"
        ).read_text()


class TestAnalyze:
    def test_scalar_model(self, tmp_path, capsys):
        mpath = tmp_path / "scalar.json"
        write_model(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]]), mpath)
        code = main(["analyze", "--model", str(mpath), "--band", "0:1"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        # printed with six significant digits
        assert float(values["h2w_norm"]) == pytest.approx(0.5, rel=1e-5)
        assert float(values["h2_norm"]) == pytest.approx(
            math.sqrt(0.5), rel=1e-5
        )
        assert float(values["max_real_eig"]) == pytest.approx(-1.0, rel=1e-5)
        assert float(values["band_theta"]) == pytest.approx(
            1 / (2 * math.pi), rel=1e-5
        )

    def test_pure_gain(self, tmp_path, capsys):
        mpath = tmp_path / "gain.json"
        write_model(StateSpaceModel.pure_gain([[1.0]]), mpath)
        code = main(["analyze", "--model", str(mpath),
                     "--band", "0:3.14159265358979"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["h2w_norm"]) == pytest.approx(1.0, rel=1e-5)

    def test_unstable_exits_one(self, tmp_path, capsys):
        mpath = tmp_path / "unstable.json"
        write_model(StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]]), mpath)
        code = main(["analyze", "--model", str(mpath), "--band", "0:1"])
        assert code == 1
        assert "unstable" in capsys.readouterr().err

    def test_relative_column_consistency(self, tmp_path, capsys):
        out = tmp_path / "out"
        main([
            "reduce", "--model", str(MODEL), "--order", "2",
            "--band", "0:1.7", "--methods", "hankel",
            "--out-dir", str(out), "--respgrid", "0",
        ])
        row = read_csv(out / "metrics.csv")[0]
        capsys.readouterr()
        main(["analyze", "--model", str(MODEL), "--band", "0:1.7"])
        values = dict(
            line.split(" = ")
            for line in capsys.readouterr().out.strip().splitlines()
        )
        want = float(row["h2w_error"]) / float(values["h2w_norm"])
        assert float(row["h2w_relative"]) == pytest.approx(want, rel=1e-4)
