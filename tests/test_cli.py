import json

import numpy as np
import pytest

from test_linalg import colligation_symbol
from toeplitz_unitary.cli import main
from toeplitz_unitary.colligation import Colligation, bcl_colligation
from toeplitz_unitary.linalg import haar_unitary
from toeplitz_unitary.serialize import (
    colligation_to_json,
    symbol_to_json,
    write_json_atomic,
)
from toeplitz_unitary.symbols import MatrixSymbol, bcl_symbol


@pytest.fixture
def symbol_file(tmp_path):
    sym = bcl_symbol(np.eye(2), np.diag([1.0, 0.0]))
    path = tmp_path / "symbol.json"
    write_json_atomic(str(path), symbol_to_json(sym))
    return path


@pytest.fixture
def colligation_file(tmp_path):
    w = bcl_colligation(haar_unitary(3, np.random.default_rng(0)),
                        np.diag([1.0, 1.0, 0.0]))
    path = tmp_path / "colligation.json"
    write_json_atomic(str(path), colligation_to_json(w))
    return path


class TestDecompose:
    def test_model_symbol(self, symbol_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(symbol_file), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"] == "constant_type"
        assert report["subspace"]["dim"] == 8
        assert report["config"]["window"] == 8

    def test_goor_symbol_trivial(self, tmp_path):
        sym = MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})
        path = tmp_path / "goor.json"
        write_json_atomic(str(path), symbol_to_json(sym))
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["classification"] == "trivial"

    def test_rank1_colligation_is_constant_type(self, tmp_path):
        # the input whose window pipeline stops one shift residual over tol;
        # as an analytic symbol it is decomposed through F(0)
        path = tmp_path / "colligation.json"
        write_json_atomic(str(path), symbol_to_json(colligation_symbol(14, 1)))
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(path), "--out", str(out), "--window", "6"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"] == "constant_type"
        assert report["subspace"]["dim"] == 6
        assert report["params"]["structure_stop"] == "analytic"

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["decompose", "--input", str(bad), "--out", str(tmp_path / "x.json")])
        assert rc == 1

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(["decompose", "--input", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1

    def test_non_contractive_is_domain_error(self, tmp_path):
        path = tmp_path / "big.json"
        write_json_atomic(str(path), symbol_to_json(
            MatrixSymbol.constant(2.0 * np.eye(2))))
        rc = main(["decompose", "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_grid_below_band_is_domain_error(self, symbol_file, tmp_path):
        rc = main(["decompose", "--input", str(symbol_file),
                   "--out", str(tmp_path / "x.json"), "--grid", "2"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--window", "--grid"])
    def test_nonpositive_window_or_grid_is_domain_error(self, symbol_file, tmp_path, flag):
        out = tmp_path / "x.json"
        rc = main(["decompose", "--input", str(symbol_file), "--out", str(out), flag, "0"])
        assert rc == 2
        assert not out.exists()

    def test_byte_identical_reruns(self, symbol_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out1)]) == 0
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestTransfer:
    def test_valid_colligation(self, colligation_file, tmp_path):
        out = tmp_path / "transfer.json"
        rc = main(["transfer", "--input", str(colligation_file), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["max_defect1"] <= 1e-10
        assert report["max_defect2"] <= 1e-10
        assert report["max_norm"] <= 1.0 + 1e-9

    def test_perturbed_colligation_is_domain_error(self, tmp_path):
        rng = np.random.default_rng(1)
        w = bcl_colligation(haar_unitary(2, rng), np.diag([1.0, 0.0]))
        bad = Colligation(2, 1, w.A + 1e-3, w.B, w.C, w.D)
        path = tmp_path / "bad.json"
        write_json_atomic(str(path), colligation_to_json(bad))
        rc = main(["transfer", "--input", str(path), "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_byte_identical_reruns(self, colligation_file, tmp_path):
        out1 = tmp_path / "t1.json"
        out2 = tmp_path / "t2.json"
        assert main(["transfer", "--input", str(colligation_file), "--out", str(out1)]) == 0
        assert main(["transfer", "--input", str(colligation_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScenario:
    def test_single_scenario(self, tmp_path):
        rc = main(["scenario", "--scenario", "goor", "--out", str(tmp_path / "res")])
        assert rc == 0
        index = json.loads((tmp_path / "res" / "index.json").read_text())
        assert index["all_pass"] is True
        assert index["results"] == {"goor": True}

    def test_all_scenarios(self, tmp_path):
        rc = main(["scenario", "--scenario", "all", "--out", str(tmp_path / "res")])
        assert rc == 0
        index = json.loads((tmp_path / "res" / "index.json").read_text())
        assert index["all_pass"] is True
        assert len(index["results"]) == 9

    def test_unknown_scenario(self, tmp_path):
        rc = main(["scenario", "--scenario", "nonexistent",
                   "--out", str(tmp_path / "res")])
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        assert main(["scenario", "--scenario", "goor", "--seed", "3",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["scenario", "--scenario", "goor", "--seed", "3",
                     "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "goor.json").read_bytes()
        b = (tmp_path / "b" / "goor.json").read_bytes()
        assert a == b

    def test_failing_scenario_is_assertion_exit(self, tmp_path, monkeypatch):
        from toeplitz_unitary import scenarios
        from toeplitz_unitary.scenarios import ScenarioCheck, ScenarioResult

        def always_fails():
            return ScenarioResult("always_fails", {}, (
                ScenarioCheck("impossible", 1.0, False),))

        monkeypatch.setitem(scenarios.SCENARIOS, "always_fails", always_fails)
        rc = main(["scenario", "--scenario", "always_fails",
                   "--out", str(tmp_path / "res")])
        assert rc == 3
        index = json.loads((tmp_path / "res" / "index.json").read_text())
        assert index["all_pass"] is False


class TestToleranceArgument:
    """--tol takes only a finite value > 0, in every subcommand."""

    @pytest.fixture
    def big_scalar_file(self, tmp_path):
        # sup norm 5: a NaN tolerance must not carry it past the contraction gate
        path = tmp_path / "big.json"
        write_json_atomic(str(path), symbol_to_json(MatrixSymbol(1, 1, {0: [[5.0]]})))
        return path

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "1e-400"])
    def test_decompose_rejects(self, big_scalar_file, tmp_path, tol):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", str(big_scalar_file), "--out", str(out),
                  "--tol", tol])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_transfer_rejects(self, colligation_file, tmp_path, tol):
        out = tmp_path / "transfer.json"
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--input", str(colligation_file), "--out", str(out),
                  "--tol", tol])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_scenario_rejects(self, tmp_path, tol):
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--scenario", "goor", "--out", str(out), "--tol", tol])
        assert exc.value.code == 2
        assert not out.exists()

    def test_finite_positive_tolerance_is_used(self, symbol_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out),
                     "--tol", "1e-9"]) == 0
        assert json.loads(out.read_text())["config"]["tol"] == 1e-9


class TestMalformedInput:
    """Input files that json.load accepts but that do not describe a symbol or
    colligation exit 1 and write nothing."""

    @staticmethod
    def run(command, tmp_path, text, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        rc = main([command, "--input", str(path), "--out", str(out)])
        assert not out.exists()
        return rc, capsys.readouterr().err

    def test_repeated_fourier_index(self, tmp_path, capsys):
        # the second k = 0 entry used to overwrite the first (sup norm 5)
        text = json.dumps({"dim_out": 1, "dim_in": 1, "coeffs": [
            {"k": 0, "re": [[5.0]], "im": [[0.0]]},
            {"k": 0, "re": [[0.5]], "im": [[0.0]]}]})
        rc, err = self.run("decompose", tmp_path, text, capsys)
        assert rc == 1
        assert "malformed symbol file" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_symbol(self, tmp_path, capsys, value):
        text = ('{"dim_out": 1, "dim_in": 1, "coeffs": [{"k": 0, "re": [[%s]], '
                '"im": [[0.0]]}]}' % value)
        rc, err = self.run("decompose", tmp_path, text, capsys)
        assert rc == 1
        assert "malformed symbol file" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_colligation(self, colligation_file, tmp_path, capsys, value):
        obj = json.loads(colligation_file.read_text())
        obj["A"]["re"][0][0] = "PLACEHOLDER"
        text = json.dumps(obj).replace('"PLACEHOLDER"', value)
        rc, err = self.run("transfer", tmp_path, text, capsys)
        assert rc == 1
        assert "malformed colligation file" in err

    @pytest.mark.parametrize("key, value", [
        ("dim_out", 1.9), ("dim_in", True), ("k", 0.7), ("k", "1")])
    def test_non_integer_symbol_field(self, tmp_path, capsys, key, value):
        # each used to be truncated or cast: 1.9 -> 1, True -> 1, 0.7 -> 0, "1" -> 1
        obj = {"dim_out": 1, "dim_in": 1, "coeffs": [{"k": 0, "re": [[0.5]], "im": [[0.0]]}]}
        if key == "k":
            obj["coeffs"][0]["k"] = value
        else:
            obj[key] = value
        rc, err = self.run("decompose", tmp_path, json.dumps(obj), capsys)
        assert rc == 1
        assert "malformed symbol file" in err

    @pytest.mark.parametrize("key", ["dim_e", "dim_k"])
    def test_non_integer_colligation_field(self, colligation_file, tmp_path, capsys, key):
        obj = json.loads(colligation_file.read_text())
        obj[key] = obj[key] + 0.5
        rc, err = self.run("transfer", tmp_path, json.dumps(obj), capsys)
        assert rc == 1
        assert "malformed colligation file" in err
