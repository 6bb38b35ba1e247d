import inspect
import json

import numpy as np
import pytest

from helpers import SIN3T, colligation_rank_family
from toeplitz_unitary import cli
from toeplitz_unitary.cli import main
from toeplitz_unitary.colligation import Colligation, bcl_colligation
from toeplitz_unitary.decomposition import window_span
from toeplitz_unitary.linalg import haar_unitary
from toeplitz_unitary.serialize import (
    colligation_to_json,
    report_to_json,
    symbol_to_json,
    write_json_atomic,
)
from toeplitz_unitary.scenarios import SCENARIOS, swap_family
from toeplitz_unitary.symbols import MatrixSymbol, bcl_symbol


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


@pytest.fixture(autouse=True)
def strict_json_outputs(monkeypatch):
    """Every file the CLI writes parses with a strict JSON parser: RFC 8259
    has no NaN or Infinity."""
    def write_and_parse(path, obj):
        write_json_atomic(path, obj)
        with open(path) as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)

    monkeypatch.setattr(cli, "write_json_atomic", write_and_parse)


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
        report = json.loads(out.read_text())
        assert report["classification"] == "trivial"
        assert report["theta"] is None
        assert report["residuals"] == {}

    def test_extraction_error_has_no_residuals(self, tmp_path):
        # the report's window part of the swap symbol, the directions F and
        # F* keep inside the window, is not shift invariant at window 5
        path = tmp_path / "swap.json"
        write_json_atomic(str(path), symbol_to_json(swap_family().symbol))
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(path), "--out", str(out), "--window", "5"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"] == "extraction_inconclusive"
        assert "extraction_error" in report["params"]
        assert report["theta"] is None
        assert report["residuals"] == {}

    def test_default_grid_follows_band(self, tmp_path):
        # 0.5 + 0.25 z^300 needs 601 points; a fixed 512-point default
        # rejected it while the library decomposed it
        path = tmp_path / "band300.json"
        write_json_atomic(str(path), symbol_to_json(
            MatrixSymbol(1, 1, {0: [[0.5]], 300: [[0.25]]})))
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(path), "--out", str(out), "--window", "2"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"] == "trivial"
        assert report["params"]["grid_size"] == 601
        assert "grid" not in report["config"]

    def test_rank1_colligation_is_constant_type(self, tmp_path):
        # the input whose window pipeline stops one shift residual over tol;
        # as an analytic symbol it is decomposed through F(0)
        path = tmp_path / "colligation.json"
        family = colligation_rank_family(14, 1)
        write_json_atomic(str(path), symbol_to_json(family.symbol))
        out = tmp_path / "report.json"
        rc = main(["decompose", "--input", str(path), "--out", str(out), "--window", "6"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classification"] == "constant_type"
        assert report["subspace"]["dim"] == window_span(family.theta, 6).shape[1]
        assert report["params"]["route"] == "analytic"

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

    def test_gate_refuses_a_non_contraction_between_few_points(self, tmp_path):
        # 1.02 sin 3t: grid maximum 0.9944 on 7 points, 1.02 on the default
        # grid, the only one the gate samples; no option picks another
        path = tmp_path / "sin3t.json"
        write_json_atomic(str(path), symbol_to_json(SIN3T))
        out = tmp_path / "report.json"
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", str(path), "--out", str(out), "--grid", "7"])
        assert exc.value.code == 2
        assert not out.exists()

    def test_nonpositive_window_is_domain_error(self, symbol_file, tmp_path):
        out = tmp_path / "x.json"
        rc = main(["decompose", "--input", str(symbol_file), "--out", str(out), "--window", "0"])
        assert rc == 2
        assert not out.exists()

    def test_byte_identical_reruns(self, symbol_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out1)]) == 0
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_non_finite_report_is_write_error(self, symbol_file, tmp_path, monkeypatch,
                                              capsys):
        # the writer refuses NaN and Infinity before it makes any file
        out = tmp_path / "report.json"
        monkeypatch.setattr(cli, "report_to_json", lambda report, config: {
            **report_to_json(report, config), "bad": float("inf")})
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}: " in err and "not JSON compliant" in err
        assert list(tmp_path.iterdir()) == [symbol_file]


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

    @pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--radius", "1"),
                                             ("--radius", "-0.5")])
    def test_bad_disc_grid_is_domain_error(self, colligation_file, tmp_path, flag, value):
        out = tmp_path / "transfer.json"
        rc = main(["transfer", "--input", str(colligation_file), "--out", str(out),
                   flag, value])
        assert rc == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("window", ["0", "-1"])
    @pytest.mark.parametrize("name", sorted(
        name for name, fn in SCENARIOS.items() if "window" in inspect.signature(fn).parameters))
    def test_window_below_one_is_domain_error(self, name, window):
        # the command takes no window; each windowed scenario refuses one < 1
        with pytest.raises(ValueError, match=f"window must be positive, got {window}"):
            SCENARIOS[name](window=int(window))

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
    """--tol takes only a finite value > 0, in decompose and transfer."""

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

    @pytest.mark.parametrize("scale, tol, code", [
        (1 + 3e-8, None, 2), (1 + 3e-8, "1e-6", 0), (1 + 3e-7, "1e-6", 3),
    ], ids=["default", "loose", "loose_defects_over"])
    def test_transfer_judges_identities_at_tol(self, tmp_path, scale, tol, code):
        # a Haar W scaled by 1 + 3e-8 has validation residual 6.0e-8 and
        # defects 4.13e-7; scaled by 1 + 3e-7, 6.0e-7 and 4.1e-6
        m = haar_unitary(4, np.random.default_rng(3)) * scale
        path = tmp_path / "scaled.json"
        write_json_atomic(str(path), colligation_to_json(
            Colligation(2, 2, m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:])))
        out = tmp_path / "transfer.json"
        argv = ["transfer", "--input", str(path), "--out", str(out)]
        assert main(argv + (["--tol", tol] if tol else [])) == code
        if tol is None:
            assert not out.exists()
        else:
            assert json.loads(out.read_text())["config"]["tol"] == float(tol)

    def test_finite_positive_tolerance_is_used(self, symbol_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out),
                     "--tol", "1e-9"]) == 0
        assert json.loads(out.read_text())["config"]["tol"] == 1e-9


class TestCachedParser:
    """``main`` shares one parser across calls; no call sees another's options."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_carry_over(self, symbol_file, tmp_path):
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["decompose", "--input", str(symbol_file), "--out", str(first),
                     "--tol", "1e-9"]) == 0
        assert main(["decompose", "--input", str(symbol_file), "--out", str(second)]) == 0
        assert json.loads(first.read_text())["config"]["tol"] == 1e-9
        assert json.loads(second.read_text())["config"]["tol"] == cli.DEFAULT_TOL

    def test_parser_survives_an_error_exit(self, symbol_file, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", str(symbol_file), "--out", str(out),
                  "--tol", "nan"])
        assert exc.value.code == 2
        assert main(["decompose", "--input", str(symbol_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["tol"] == cli.DEFAULT_TOL


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

    def test_string_matrix_entry(self, tmp_path, capsys):
        # a conversion to float would decompose the symbol 0.5
        text = json.dumps({"dim_out": 1, "dim_in": 1, "coeffs": [
            {"k": 0, "re": [["0.5"]], "im": [[0.0]]}]})
        rc, err = self.run("decompose", tmp_path, text, capsys)
        assert rc == 1
        assert "malformed symbol file: re entries must be numbers" in err

    def test_boolean_matrix_entry(self, colligation_file, tmp_path, capsys):
        obj = json.loads(colligation_file.read_text())
        obj["B"]["im"][0][0] = False
        rc, err = self.run("transfer", tmp_path, json.dumps(obj), capsys)
        assert rc == 1
        assert "malformed colligation file: im entries must be numbers" in err

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


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _keys(item)


def test_every_written_key_is_a_string(symbol_file, colligation_file, tmp_path,
                                       monkeypatch):
    # the writer would turn an int, float, bool or None key into a string, so
    # every dict the commands write must be keyed by strings already
    written = {}
    monkeypatch.setattr(cli, "write_json_atomic",
                        lambda path, obj: written.__setitem__(path, obj))
    swap, trivial = tmp_path / "swap.json", tmp_path / "trivial.json"
    write_json_atomic(str(swap), symbol_to_json(swap_family().symbol))
    write_json_atomic(str(trivial), symbol_to_json(MatrixSymbol(1, 1, {0: [[0.25]],
                                                                       1: [[0.5]]})))
    for path in (symbol_file, swap, trivial):
        assert main(["decompose", "--input", str(path), "--out", f"{path}.out",
                     "--window", "6"]) == 0
    assert main(["transfer", "--input", str(colligation_file),
                 "--out", str(tmp_path / "transfer.json")]) == 0
    main(["scenario", "--scenario", "all", "--seed", "0", "--out", str(tmp_path / "s")])
    routes = {written[f"{path}.out"]["params"].get("route") for path in (symbol_file, swap)}
    assert routes == {"analytic", "kernel"}
    assert written[f"{trivial}.out"]["classification"] == "trivial"
    assert str(tmp_path / "transfer.json") in written
    assert len(written) == 4 + len(SCENARIOS) + 1  # with the scenarios' index.json
    for obj in written.values():
        assert all(type(key) is str for key in _keys(obj))
