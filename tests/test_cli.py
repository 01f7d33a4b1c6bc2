import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import schemeres as sr
from schemeres.cli import main, make_preset_scheme


class TestBuild:
    def test_cycle_file_round_trips(self, tmp_path, capsys):
        out = tmp_path / "c8.json"
        assert main(["build", "cycle", "--n", "8", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "N=8 d=4" in text and "(1, 2, 2, 2, 1)" in text
        assert "distance-regular: yes" in text

        doc = json.loads(out.read_text())
        scheme = sr.scheme_from_dict(doc)
        again = sr.scheme_to_dict(scheme)
        assert again == doc  # the same class map after a round trip

    def test_group_preset(self, tmp_path, capsys):
        out = tmp_path / "s4.json"
        assert main(["build", "s4", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "d=4" in text and "(1, 6, 8, 3, 6)" in text
        assert "distance-regular: no" in text

    def test_square_m5(self, tmp_path, capsys):
        out = tmp_path / "sq.json"
        assert main(["build", "square", "--m", "5", "--out", str(out)]) == 0
        assert "N=25" in capsys.readouterr().out

    def test_unknown_builder(self, capsys):
        assert main(["build", "dodecahedron", "--out", "x.json"]) == 2
        assert "UnknownBuilder" in capsys.readouterr().err

    def test_missing_parameter(self, capsys):
        assert main(["build", "cycle"]) == 2
        assert "BadParameter" in capsys.readouterr().err


class TestResist:
    def test_s4_all_methods(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["resist", "s4", "--conductances", "1,0,0,0",
                     "--method", "oracle", "spectral", "polynomial",
                     "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "23/72" in text and "35/96" in text and "3/8" in text
        report = json.loads(out.read_text())
        assert set(report) >= {"scheme", "tables", "checks"}
        methods = [t["method"] for t in report["tables"]]
        assert methods == ["oracle", "spectral", "polynomial"]
        poly = report["tables"][2]["values"]
        assert poly[0]["num"] == 23 and poly[0]["den"] == 72
        assert all(chk["pass"] for chk in report["checks"])
        names = [chk["name"] for chk in report["checks"]]
        assert "method-agreement" in names

    def test_cycle6_value(self, capsys):
        code = main(["resist", "cycle", "--n", "6",
                     "--conductances", "1,0,0", "--method", "polynomial"])
        assert code == 0
        assert "5/6" in capsys.readouterr().out

    def test_s4_foster_all_ones(self, capsys):
        code = main(["resist", "s4", "--conductances", "1,1,1,1",
                     "--method", "spectral", "oracle"])
        assert code == 0
        text = capsys.readouterr().out
        assert "foster[spectral]: pass" in text

    def test_reference_flags_printed(self, capsys):
        code = main(["resist", "z5z5", "--method", "polynomial"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("CONFIRMED") >= 3
        assert "UNCONFIRMED" in text

    def test_csv_output(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["resist", "cycle", "--n", "8", "--method", "polynomial",
                     "closed", "--format", "csv", "--out", str(out)])
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["class", "kappa", "R_exact_num", "R_exact_den",
                           "R_float", "method"]
        assert rows[1][:4] == ["1", "2", "7", "8"]
        assert {r[5] for r in rows[1:]} == {"polynomial", "closed_form"}

    def test_polynomial_precondition(self, capsys):
        code = main(["resist", "s4", "--conductances", "1,1,0,0",
                     "--method", "polynomial"])
        assert code == 2
        assert "MethodPreconditionViolated" in capsys.readouterr().err

    def test_closed_needs_drg(self, capsys):
        code = main(["resist", "s4", "--method", "closed"])
        assert code == 2
        assert "MethodPreconditionViolated" in capsys.readouterr().err

    def test_closed_beyond_diameter_five(self, tmp_path, capsys):
        out = tmp_path / "h10.json"
        code = main(["resist", "hypercube", "--n", "10", "--method", "closed",
                     "polynomial", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [len(t["values"]) for t in report["tables"]] == [10, 10]
        checks = {chk["name"]: chk for chk in report["checks"]}
        for name in ("foster[closed_form]", "method-agreement"):
            assert checks[name]["pass"] and checks[name]["residual"] == 0

    def test_polynomial_degenerate_scheme(self, capsys):
        code = main(["resist", "square", "--m", "4", "--method", "polynomial"])
        assert code == 2
        assert "FewerEigenvalues" in capsys.readouterr().err

    def test_garbage_scheme_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["resist", str(bad)]) == 2
        assert "BadParameter" in capsys.readouterr().err

    def test_tolerance_failure_exit_code(self, capsys):
        code = main(["resist", "s4", "--method", "oracle", "spectral",
                     "--tolerance", "1e-18"])
        assert code == 1
        assert "method-agreement: FAIL" in capsys.readouterr().out

    def test_scheme_file_input(self, tmp_path, capsys):
        out = tmp_path / "t6.json"
        main(["build", "triangular", "--n", "6", "--out", str(out)])
        capsys.readouterr()
        code = main(["resist", str(out), "--method", "oracle", "closed"])
        assert code == 0

    def test_spectral_at_tiny_conductance(self, tmp_path, s4):
        out = tmp_path / "report.json"
        code = main(["resist", "s4", "--conductances", "1e-13,0,0,0",
                     "--method", "spectral", "--out", str(out)])
        assert code == 0
        got = [v["float"] for v in json.loads(out.read_text())["tables"][0]["values"]]
        unit = sr.resistance_spectral(s4, sr.spectral_data(s4), [1, 0, 0, 0])
        assert np.allclose(got, 1e13 * np.array(unit.values), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_certification_failure_is_typed(self, flags):
        """The oracle's error bound exits 2 with its error name, also under -O."""
        src = str(pathlib.Path(sr.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "schemeres.cli", "resist", "s4",
             "--conductances", "1e-7,0,0,0"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2, proc.stderr
        assert "error [CertificationFailed]" in proc.stderr

    def test_rational_conductance_literals(self, capsys):
        code = main(["resist", "s4", "--conductances", "1/2,0.25,1,2",
                     "--method", "oracle", "spectral"])
        assert code == 0


class TestInfinite:
    def test_line(self, capsys):
        assert main(["infinite", "line", "--l", "5"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1].split("(")[0])
        assert abs(value - 5.0) < 1e-8

    def test_square_with_cross_check(self, capsys):
        assert main(["infinite", "square", "--l", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert "0.5000000000" in out
        assert "finite m=200" in out

    def test_hexagonal_nearest_neighbor(self, capsys):
        assert main(["infinite", "hexagonal", "--l", "1", "0"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1].split("(")[0])
        assert abs(value - 1 / 3) < 1e-6
        assert "finite m=100" in out

    def test_bad_separation_count(self, capsys):
        assert main(["infinite", "square", "--l", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["resist", "s4", "--conductances", "1,0,0"],
    ["resist", "s4", "--conductances=-1,0,0,0"],
    ["resist", "s4", "--conductances", "0,0,0,0"],
    ["resist", "s4", "--conductances", "1e400,0,0,0"],
    ["infinite", "line", "--l", "-1"],
    ["infinite", "square", "--l", "0", "0"],
], ids=["wrong-count", "negative", "all-zero", "no-finite-float", "negative-separation",
        "zero-separation"])
def test_invalid_values_are_bad_parameters(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error [BadParameter]: ")


class TestPresetFactory:
    def test_every_preset_constructs(self):
        for name, kwargs in [
            ("cycle", {"n": 6}), ("hypercube", {"n": 3}),
            ("triangular", {"n": 5}), ("s4", {}), ("s4-refined-a", {}),
            ("s4-refined-b", {}), ("z5z5", {}), ("square", {"m": 4}),
            ("hexagonal", {"m": 5}),
        ]:
            scheme = make_preset_scheme(name, **kwargs)
            assert scheme.n >= 2
