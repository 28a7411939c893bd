"""Command-line interface and file formats.

File round trips must be bit exact (values are written with 17
significant digits), and the exit-code contract is pinned:
0 success, 1 malformed input, 2 violated precondition, 3 verification
failure.
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import axis_frame, unit_square_set
from subquad import cli, harness, io, models
from subquad.cli import main
from subquad.errors import FileFormatError
from subquad.geometry import SampleSet, SubspaceFrame, hat_sampleset
from subquad.models import (
    GradientFamily,
    ModelResult,
    QuadraticModel,
    fit_lfu,
    fit_mfn,
)
from subquad.simplex import DirectionBundle


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    io.save_sampleset(str(path), unit_square_set())
    return str(path)


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "frame.json"
    io.save_frame(str(path), axis_frame())
    return str(path)


class TestRealFormatting:
    def test_seventeen_digits_round_trip(self, rng):
        values = np.concatenate([
            rng.standard_normal(50),
            [1e-300, 1e300, -0.1, 2.0 / 3.0, np.pi],
        ])
        for v in values:
            assert float(io.format_real(float(v))) == float(v)

    def test_integral_floats_keep_a_point(self):
        assert "." in io.format_real(1.0) or "e" in io.format_real(1.0)
        assert float(io.format_real(-3.0)) == -3.0

    def test_nonfinite_rejected(self):
        with pytest.raises(FileFormatError):
            io.format_real(float("nan"))


class TestFileRoundTrips:
    def test_sampleset_bit_exact(self, tmp_path, rng):
        disp = rng.standard_normal((4, 3))
        values = rng.standard_normal(5)
        from subquad.geometry import SampleSet

        original = SampleSet(rng.standard_normal(3), disp, values)
        path = str(tmp_path / "set.json")
        io.save_sampleset(path, original)
        loaded = io.load_sampleset(path)
        np.testing.assert_array_equal(loaded.x0, original.x0)
        np.testing.assert_array_equal(loaded.displacements, original.displacements)
        np.testing.assert_array_equal(loaded.values, original.values)

    def test_model_bit_exact(self, tmp_path):
        result = fit_lfu(unit_square_set(), np.eye(3))
        path = str(tmp_path / "model.json")
        io.save_model(path, result)
        loaded = io.load_model(path)
        assert loaded.kind == "lfu"
        np.testing.assert_array_equal(loaded.model.g, result.model.g)
        np.testing.assert_array_equal(loaded.model.H, result.model.H)
        np.testing.assert_array_equal(
            loaded.gradients.ambiguity_basis, result.gradients.ambiguity_basis
        )
        np.testing.assert_array_equal(
            loaded.reference_hessian, result.reference_hessian
        )

    def test_frame_bit_exact(self, tmp_path, rng):
        from subquad import linalg

        q, _ = linalg.orthonormal_columns(rng.standard_normal((5, 2)))
        frame = SubspaceFrame(rng.standard_normal(5), q)
        path = str(tmp_path / "frame.json")
        io.save_frame(path, frame)
        loaded = io.load_frame(path)
        np.testing.assert_array_equal(loaded.Q, frame.Q)
        np.testing.assert_array_equal(loaded.x0, frame.x0)

    def test_bundle_round_trip(self, tmp_path, rng):
        s = rng.standard_normal((4, 2))
        blocks = [rng.standard_normal((4, 3)), rng.standard_normal((4, 1))]
        path = str(tmp_path / "bundle.json")
        io.save_bundle(path, DirectionBundle(s, blocks), x0=np.ones(4))
        bundle, x0 = io.load_bundle(path)
        assert not bundle.shared
        np.testing.assert_array_equal(bundle.S, s)
        for got, want in zip(bundle.blocks, blocks):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(x0, np.ones(4))

    def test_reference_hessian_shorthand(self, tmp_path):
        # ``0`` and ``I<n>`` resolve to the vector of their diagonal
        np.testing.assert_array_equal(io.load_reference("0", 3), np.zeros(3))
        np.testing.assert_array_equal(io.load_reference("I3", 3), np.ones(3))
        with pytest.raises(FileFormatError):
            io.load_reference("I4", 3)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            io.load_sampleset(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"n": 3, "x0": [0, 0, 0]}))
        with pytest.raises(FileFormatError):
            io.load_sampleset(str(path))


#: Byte edits that make a valid file malformed: ``(file, old, new)`` with
#: ``file`` the sample set ``subspace detect`` reads or the model
#: ``subspace restrict`` reads.
MALFORMED = {
    "invalid utf-8": ("samples", b'"n"', b'"config": "\xff", "n"'),
    "100,000 open arrays": ("samples", b'"x0": ', b'"x0": ' + b"[" * 100_000),
    "100,000 nested objects": (
        "samples", b'"n"',
        b'"config": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_000
        + b', "n"',
    ),
    "huge integer constant": ("model", b'"c": 0.0', b'"c": 1' + b"0" * 400),
    "huge integer in x0": ("samples", b'"x0": [', b'"x0": [1' + b"0" * 400
                           + b", "),
    "constant beyond the double range": ("model", b'"c": 0.0', b'"c": 1e400'),
}


class TestMalformedDocuments:
    """Text that is not strict JSON ends in ``FileFormatError`` and exit
    code 1 with one ``error:`` line, never a traceback or a crash."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_1(self, square_file, frame_file, tmp_path, capsys, name):
        target, old, new = MALFORMED[name]
        model_file = str(tmp_path / "model.json")
        io.save_model(model_file, fit_mfn(unit_square_set()))
        path = square_file if target == "samples" else model_file
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.count(old) == 1
        with open(path, "wb") as handle:
            handle.write(data.replace(old, new))
        out = str(tmp_path / "out.json")
        argv = (["subspace", "detect", "--in", path] if target == "samples"
                else ["subspace", "restrict", "--model", path,
                      "--frame", frame_file])
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs a file name that is not UTF-8")
    def test_written_files_stay_readable(self, tmp_path, capsys):
        """A path with the byte 0xff is held with a lone surrogate; the
        frame that records it in ``config`` reads back."""
        infile = str(tmp_path / os.fsdecode(b"full\xff.json"))
        io.save_sampleset(infile, unit_square_set())
        frame = str(tmp_path / "frame.json")
        model = str(tmp_path / "model.json")
        assert main(["subspace", "detect", "--in", infile,
                     "--out", frame]) == 0
        assert main(["fit", "--kind", "mfn", "--in", infile,
                     "--out", model]) == 0
        assert main(["subspace", "restrict", "--model", model,
                     "--frame", frame,
                     "--out", str(tmp_path / "restricted.json")]) == 0
        config = io.read_document(frame)["config"]
        assert config["in"] == str(tmp_path / r"full\xff.json")
        assert "error" not in capsys.readouterr().err


class TestFitCommand:
    def test_mfn_worked_example(self, square_file, tmp_path, capsys):
        out = str(tmp_path / "model.json")
        code = main(["fit", "--kind", "mfn", "--in", square_file, "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"command": "fit"' in printed
        loaded = io.load_model(out)
        np.testing.assert_allclose(loaded.model.g, [1, 1, 0], atol=1e-10)
        np.testing.assert_allclose(loaded.model.H, 0.0, atol=1e-10)
        # the effective config travels inside the file
        doc = json.loads(Path(out).read_text())
        assert doc["config"]["kind"] == "mfn"

    def test_lfu_identity_reference(self, square_file, tmp_path):
        out = str(tmp_path / "model.json")
        code = main([
            "fit", "--kind", "lfu", "--href", "I3",
            "--in", square_file, "--out", out,
        ])
        assert code == 0
        loaded = io.load_model(out)
        np.testing.assert_allclose(loaded.model.H, np.eye(3), atol=1e-10)

    def test_qgsd_from_bundle(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.json")
        io.save_bundle(bundle_path, DirectionBundle(np.eye(3), np.eye(3)))
        out = str(tmp_path / "model.json")
        code = main([
            "fit", "--kind", "qgsd", "--variant", "refined",
            "--function", "sphere", "--in", bundle_path, "--out", out,
        ])
        assert code == 0
        loaded = io.load_model(out)
        # the sphere is quadratic: refined recovery is exact
        np.testing.assert_allclose(loaded.model.H, 2.0 * np.eye(3), atol=1e-9)
        np.testing.assert_allclose(loaded.model.g, 0.0, atol=1e-9)

    def test_unpoised_dqi_exits_2(self, square_file, tmp_path, capsys):
        code = main([
            "fit", "--kind", "dqi", "--in", square_file,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "NotPoised" in capsys.readouterr().err

    def test_infeasible_mfn_exits_2(self, tmp_path, capsys):
        t = np.arange(1.0, 7.0)
        path = tmp_path / "collinear.json"
        io.save_sampleset(str(path), SampleSet(
            np.zeros(3), np.outer(t, np.array([1.0, 1.0, 0.0])),
            np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]),
        ))
        code = main([
            "fit", "--kind", "mfn", "--in", str(path),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "InfeasibleError" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_malformed_input_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[['")
        code = main([
            "fit", "--kind", "mn", "--in", str(bad),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    def test_missing_file_exits_1(self, tmp_path):
        code = main([
            "fit", "--kind", "mn", "--in", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["fit", "--kind", "warp"])
        assert info.value.code == 1

    @pytest.mark.parametrize("kind,option", [("lfu", "--href"),
                                             ("qgsd", "--function")])
    def test_kind_without_its_option_exits_1(self, square_file, tmp_path,
                                             capsys, kind, option):
        infile = square_file
        if kind == "qgsd":
            infile = str(tmp_path / "bundle.json")
            io.save_bundle(infile, DirectionBundle(np.eye(3), np.eye(3)))
        out = tmp_path / "x.json"
        code = main(["fit", "--kind", kind, "--in", infile,
                     "--out", str(out)])
        assert code == 1
        assert f"--kind {kind} needs {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_function_seed_exits_1(self, tmp_path, capsys):
        infile = str(tmp_path / "bundle.json")
        io.save_bundle(infile, DirectionBundle(np.eye(3), np.eye(3)))
        out = tmp_path / "x.json"
        code = main(["fit", "--kind", "qgsd", "--function", "quad:-3",
                     "--in", infile, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: function seed -3 is negative\n"
        assert not out.exists()


class TestSubspaceCommands:
    def test_detect(self, square_file, tmp_path, capsys):
        out = str(tmp_path / "frame.json")
        assert main(["subspace", "detect", "--in", square_file, "--out", out]) == 0
        frame = io.load_frame(out)
        assert frame.d == 2
        assert "d=2" in capsys.readouterr().out

    def test_lift_restrict_compare_pipeline(self, square_file, frame_file,
                                            tmp_path, capsys):
        """Full worked-example pipeline through files: fit on the plane,
        lift with the identity reference, compare against the sub fit."""
        square = unit_square_set()
        frame = axis_frame()
        sub_path = str(tmp_path / "sub.json")
        io.save_model(sub_path, fit_lfu(hat_sampleset(square, frame), np.eye(2)))

        lifted_path = str(tmp_path / "lifted.json")
        assert main([
            "subspace", "lift", "--model", sub_path, "--frame", frame_file,
            "--href", "I3", "--out", lifted_path,
        ]) == 0
        lifted = io.load_model(lifted_path)
        np.testing.assert_allclose(lifted.model.H, np.eye(3), atol=1e-10)
        assert lifted.correction_applied is True

        back_path = str(tmp_path / "back.json")
        assert main([
            "subspace", "restrict", "--model", lifted_path,
            "--frame", frame_file, "--out", back_path,
        ]) == 0
        back = io.load_model(back_path)
        np.testing.assert_allclose(back.model.H, np.eye(2), atol=1e-10)

        report_path = str(tmp_path / "report.json")
        assert main([
            "subspace", "compare", "--full", lifted_path, "--sub", sub_path,
            "--frame", frame_file, "--out", report_path,
        ]) == 0
        doc = json.loads(Path(report_path).read_text())
        assert doc["subspace_value_gap"] < 1e-10
        assert doc["complement_probe_gaps"][0] == pytest.approx(0.5, abs=1e-12)

    def test_lift_mfn_needs_no_reference(self, square_file, frame_file, tmp_path):
        square = unit_square_set()
        frame = axis_frame()
        sub_path = str(tmp_path / "sub.json")
        io.save_model(sub_path, fit_mfn(hat_sampleset(square, frame)))
        out = str(tmp_path / "lifted.json")
        assert main([
            "subspace", "lift", "--model", sub_path,
            "--frame", frame_file, "--out", out,
        ]) == 0
        lifted = io.load_model(out)
        np.testing.assert_allclose(lifted.model.g, [1, 1, 0], atol=1e-10)

    def test_compare_with_overflowing_values_exits_2(self, tmp_path, capsys):
        """Finite models whose probe values overflow: the gaps would be
        NaN, so the compare is a violated precondition."""
        paths = {}
        for name, n in (("full", 3), ("sub", 2)):
            model = QuadraticModel(np.zeros(n), 1e308, np.full(n, 1e308),
                                   np.eye(n))
            paths[name] = str(tmp_path / f"{name}.json")
            io.save_model(paths[name], ModelResult(
                model, GradientFamily(model.g, np.zeros((n, 0))), "mn"
            ))
        frame_path = str(tmp_path / "frame.json")
        io.save_frame(frame_path, SubspaceFrame(np.zeros(3), np.eye(3)[:, :2]))
        code = main([
            "subspace", "compare", "--full", paths["full"],
            "--sub", paths["sub"], "--frame", frame_path,
        ])
        assert code == 2
        assert "NonFiniteError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["mn", "dqi"])
    def test_lift_mn_and_dqi(self, frame_file, tmp_path, kind):
        """Both lift as minimum-norm models: ``|x|^2`` on the six points
        of a poised set in the plane lifts to ``H = diag(2, 2, 0)``."""
        dhat = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0],
                         [0.0, -1.0]])
        hatted = SampleSet(np.zeros(2), dhat,
                           np.concatenate([[0.0], np.sum(dhat**2, axis=1)]))
        fit = models.fit_dqi if kind == "dqi" else models.fit_mn
        sub_path = str(tmp_path / "sub.json")
        out = str(tmp_path / "lift.json")
        io.save_model(sub_path, fit(hatted))
        assert main(["subspace", "lift", "--model", sub_path,
                     "--frame", frame_file, "--out", out]) == 0
        lifted = io.load_model(out)
        assert lifted.kind == "mn"
        np.testing.assert_allclose(lifted.model.H, np.diag([2.0, 2.0, 0.0]),
                                   atol=1e-10)
        np.testing.assert_allclose(lifted.model.g, 0.0, atol=1e-10)

    def test_lift_qgsd_exits_1(self, frame_file, tmp_path, capsys):
        bundle_path = str(tmp_path / "bundle.json")
        io.save_bundle(bundle_path, DirectionBundle(np.eye(3), np.eye(3)))
        model, out = str(tmp_path / "model.json"), str(tmp_path / "lift.json")
        assert main(["fit", "--kind", "qgsd", "--function", "sphere",
                     "--in", bundle_path, "--out", model]) == 0
        capsys.readouterr()
        assert main(["subspace", "lift", "--model", model,
                     "--frame", frame_file, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "qgsd" in err
        assert not os.path.exists(out)

    def test_lift_lfu_without_href_exits_1(self, frame_file, tmp_path):
        square = unit_square_set()
        frame = axis_frame()
        sub_path = str(tmp_path / "sub.json")
        io.save_model(sub_path, fit_lfu(hat_sampleset(square, frame), np.eye(2)))
        code = main([
            "subspace", "lift", "--model", sub_path,
            "--frame", frame_file, "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1


class TestVerifyCommand:
    def test_small_run_writes_tables(self, tmp_path, capsys):
        out_dir = str(tmp_path / "verify")
        code = main([
            "verify", "--theorem", "mn", "--trials", "4",
            "--out-dir", out_dir,
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "suite_mn.csv"))
        summary = json.loads(
            Path(out_dir, "summary.json").read_text()
        )
        assert summary["all_passed"] is True
        assert summary["suites"][0]["trials"] == 4
        lines = Path(out_dir, "suite_mn.csv").read_text().splitlines()
        assert lines[0].startswith("theorem,trial,n,d,m,function_class,gap")
        assert len(lines) == 5

    @pytest.mark.parametrize("argv", [
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-5"],
        ["verify", "--trials", "abc"],
        ["verify", "--probes", "-3"],
        ["subspace", "compare", "--full", "a.json", "--sub", "b.json",
         "--frame", "c.json", "--probes", "-1"],
    ])
    def test_vacuous_counts_are_usage_errors(self, argv, capsys):
        """A run of no trials would pass every suite; it is refused before
        anything runs or is written."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "config" not in captured.out

    def test_least_counts_accepted(self, capsys):
        assert main([
            "verify", "--theorem", "gsg", "--trials", "1", "--probes", "0",
        ]) == 0
        assert "suite gsg: pass (0/1 failures" in capsys.readouterr().out

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        assert main(["verify", "--theorem", "gsg", "--trials", "2",
                     "--seed", "3"]) == 0
        assert main(["verify", "--theorem", "gsg", "--trials", "1"]) == 0
        first, second = capsys.readouterr().out.split("config ")[1:]
        assert '"trials": 2' in first and '"seed": 3' in first
        assert '"trials": 1' in second and '"seed": 42' in second

    def test_impossible_tolerance_exits_3(self):
        code = main([
            "verify", "--theorem", "mfn", "--trials", "3", "--tol", "1e-18",
        ])
        assert code == 3

    @pytest.mark.parametrize("gap", ["inf", "nan"])
    def test_nonfinite_worst_gap_exits_3_with_a_summary(
        self, monkeypatch, tmp_path, capsys, gap
    ):
        """A planted non-finite gap fails its suite and is written as the
        CSV writes it, ``"inf"`` or ``"nan"``, with its own histogram key."""
        trial_gsg = harness._TRIALS["gsg"]

        def planted(spec, trial, probes, seed_of):
            if trial == 0:
                return float(gap), "planted"
            return trial_gsg(spec, trial, probes, seed_of)

        monkeypatch.setitem(harness._TRIALS, "gsg", planted)
        out_dir = tmp_path / "verify"
        assert main(["verify", "--theorem", "gsg", "--trials", "2",
                     "--seed", "1", "--out-dir", str(out_dir)]) == 3
        assert "suite gsg: FAIL" in capsys.readouterr().out
        summary = io.read_document(str(out_dir / "summary.json"))
        suite = summary["suites"][0]
        assert summary["all_passed"] is False
        assert suite["max_gap"] == gap and suite["failures"] == 1
        assert suite["gap_histogram"][gap] == 1
        rows = (out_dir / "suite_gsg.csv").read_text().splitlines()
        assert rows[1].split(",")[6:8] == [gap, "False"]

    def test_unknown_theorem_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--theorem", "zorn"])
        assert info.value.code == 1
