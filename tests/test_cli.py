import json
import os
import subprocess
import sys

import numpy as np
import pytest

import curvkit as ck
import curvkit.serialize as io
from curvkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tensor(path, curv):
    path.write_text(io.dumps(io.tensor_to_dict(curv)))
    return str(path)


class TestValidateCommand:
    def test_generated_tensor_validates(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "theta", "--n", "4", "--seed", "3")
        assert code == 0
        tensor_file = tmp_path / "t.json"
        tensor_file.write_text(out)
        code, out, _ = run(capsys, "validate", str(tensor_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True and doc["n"] == 4

    def test_sharp_model_tensor_validates(self, tmp_path, capsys):
        # gen local-sharp -> recover -> validate must accept its own output
        code, out, _ = run(capsys, "gen", "local-sharp", "--n", "4", "--N", "1")
        assert code == 0
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(json.dumps(json.loads(out)["decomposition"]))
        code, out, _ = run(capsys, "recover", str(dec_file))
        assert code == 0
        tensor_file = tmp_path / "sharp.json"
        tensor_file.write_text(out)
        code, out, _ = run(capsys, "validate", str(tensor_file))
        assert code == 0 and json.loads(out)["valid"] is True

    def test_symmetry_violation_exits_1(self, tmp_path, capsys):
        bad = {
            "n": 2,
            "entries": [
                {"i": 1, "j": 1, "k": 2, "l": 2, "re": 1.0, "im": 0.0},
                {"i": 2, "j": 1, "k": 1, "l": 2, "re": 0.0, "im": 0.0},
            ],
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        code, _, err = run(capsys, "validate", str(f))
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"] == "validation"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "validate", str(f))
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "input"

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "validate", "/nonexistent/tensor.json")
        assert code == 2


class TestPipelineCommands:
    def test_decompose_zero_tensor(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "zero.json", ck.KahlerCurvature.zero(2))
        code, out, _ = run(capsys, "decompose", f)
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 0 and doc["pos"] == [] and doc["neg"] == []

    def test_decompose_recover_roundtrip(self, tmp_path, capsys):
        curv = ck.random_kahler(3, ck.Rng(11))
        f = write_tensor(tmp_path / "t.json", curv)
        code, out, _ = run(capsys, "decompose", f)
        assert code == 0
        dec_file = tmp_path / "dec.json"
        dec_file.write_text(out)
        code, out, _ = run(capsys, "recover", str(dec_file))
        assert code == 0
        back = io.tensor_from_dict(json.loads(out))
        assert (
            np.linalg.norm(back.tensor - curv.tensor) / np.linalg.norm(curv.tensor)
            <= 1e-8
        )

    def test_hsc_value(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "t.json", ck.graph_curvature([np.eye(2)], -1))
        code, out, _ = run(capsys, "hsc", f, "--v", "[[1,0],[0,1]]")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)
        code, out, _ = run(capsys, "hsc", f, "--v", "[[1,0],[0,0]]")
        assert json.loads(out)["value"] == pytest.approx(-1.0)

    def test_ricci_and_kernel(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "t.json", ck.graph_curvature([np.diag([1.0, 0.0])], -1))
        code, out, _ = run(capsys, "ricci", f)
        assert code == 0
        doc = json.loads(out)
        assert doc["determinant"] == [0.0, 0.0]
        assert doc["definite"] is False
        assert doc["scalar"] == pytest.approx(-1.0)
        code, out, _ = run(capsys, "kernel", f)
        doc = json.loads(out)
        assert doc["dim"] == 1 and doc["n_R"] == 1

    def test_eta_certificate(self, tmp_path, capsys):
        f = write_tensor(tmp_path / "t.json", ck.graph_curvature([np.eye(2)], -1))
        code, out, _ = run(capsys, "eta", f, "--trials", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["eta_lower"] == 1 == doc["eta_upper"]
        assert doc["eta_exact"] is True

    def test_eta_indefinite_exits_1(self, tmp_path, capsys):
        fq = ck.QuadraticForm(np.diag([1.0, 0.0]))
        gq = ck.QuadraticForm(np.diag([0.0, 1.0]))
        curv = ck.recover(ck.SquareDecomposition(2, pos=(fq,), neg=(gq,)))
        f = write_tensor(tmp_path / "t.json", curv)
        code, _, err = run(capsys, "eta", f)
        assert code == 1
        assert json.loads(err.splitlines()[-1])["error"] == "precondition"


class TestBoundCommand:
    def test_gen_theta_passes(self, capsys):
        code, out, _ = run(capsys, "bound", "--gen", "theta", "--n", "4", "--rank", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["r_point"] == 2 == doc["bound_main1"]
        assert doc["pass_main1"] is True and doc["pass_main2"] is True

    def test_gen_local_sharp(self, capsys):
        code, out, _ = run(capsys, "bound", "--gen", "local-sharp", "--n", "6", "--N", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["r_point"] == doc["bound_main1"] == 3
        assert doc["ricci_definite"] is True

    def test_degenerate_rank_uses_kernel_bound(self, capsys):
        # rank-deficient model: the plain bound is out of hypothesis (Ricci
        # degenerate) but the kernel-aware bound must hold, so exit is 0
        code, out, _ = run(capsys, "bound", "--gen", "theta", "--n", "4", "--rank", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass_main2"] is True
        assert doc["ricci_definite"] is False

    def test_multiple_points_sampled_summary(self, tmp_path, capsys):
        files = []
        for rank, name in ((4, "a.json"), (2, "b.json")):
            f = ck.random_symmetric_with_rank(4, rank, ck.Rng(rank))
            files.append(write_tensor(tmp_path / name, ck.graph_curvature([f.matrix], -1)))
        code, out, _ = run(capsys, "bound", *files)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["points"]) == 2
        # eta = 2 at full rank, 3 at rank 2; the sampled minimum is 2
        assert doc["sampled_eta0"] == 2 and doc["sampled_r0"] == 2


class TestGenerators:
    def test_gen_sharp_document(self, capsys):
        code, out, _ = run(capsys, "gen", "sharp", "--n", "5", "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["eta"] == 3 and len(doc["quadrics"]) == 2
        assert doc["shared_subspace"]["d"] == 3

    def test_gen_local_sharp_negative(self, capsys):
        code, out, _ = run(capsys, "gen", "local-sharp", "--n", "4", "--N", "1", "--negative")
        assert code == 0
        doc = json.loads(out)
        assert doc["decomposition"]["pos"] == []
        assert len(doc["decomposition"]["neg"]) == 1

    def test_gen_theta_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "theta", "--n", "5", "--rank", "3", "--seed", "42")
        _, second, _ = run(capsys, "gen", "theta", "--n", "5", "--rank", "3", "--seed", "42")
        assert first == second
        _, third, _ = run(capsys, "gen", "theta", "--n", "5", "--rank", "3", "--seed", "43")
        assert first != third


class TestQuadricCommands:
    def test_kernels(self, tmp_path, capsys):
        quads, _, _ = ck.sharp_family(5, 2)
        f = tmp_path / "q.json"
        f.write_text(io.dumps(io.quadrics_to_dict(quads)))
        code, out, _ = run(capsys, "quadric", "kernels", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["common_kernel"]["d"] == 0
        assert [item["rank"] for item in doc["kernels"]] == [4, 2]

    def test_isotropic(self, tmp_path, capsys):
        q = ck.random_symmetric_with_rank(5, 5, ck.Rng(17))
        f = tmp_path / "q.json"
        f.write_text(io.dumps(io.quadrics_to_dict([q])))
        code, out, _ = run(capsys, "quadric", "isotropic", str(f))
        assert code == 0
        doc = json.loads(out)
        item = doc["results"][0]
        assert item["rank"] == 5 and item["bound"] == 2 == item["dim"]
        assert item["max_residual"] <= 1e-9


class TestOutputModes:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "gen", "theta", "--n", "3", "-o", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["n"] == 3

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "bound", "--gen", "theta", "--n", "4", "--format", "text")
        assert code == 0
        assert "bound_main1" in out and "{" not in out.splitlines()[0]

    def test_env_tolerance_flag_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CURVKIT_TOL", "not-a-number")
        code, _, err = run(capsys, "gen", "theta", "--n", "3")
        assert code == 2
        monkeypatch.setenv("CURVKIT_TOL", "1e-8")
        code, _, _ = run(capsys, "gen", "theta", "--n", "3")
        assert code == 0
        code, _, _ = run(capsys, "gen", "theta", "--n", "3", "--tol", "1e-7")
        assert code == 0

    def test_byte_identical_reports(self, capsys):
        args = ("bound", "--gen", "local-sharp", "--n", "8", "--N", "3", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def test_import_leaves_scipy_out():
    # a CLI process pays for every module it imports at start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(ck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, curvkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
