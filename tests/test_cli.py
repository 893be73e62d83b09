"""Command-line surface: JSON output, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from cvrptw_gas.cli import main, sample_indices
from cvrptw_gas.instance import serialize_instance, unpack_assignment


@pytest.fixture()
def example_path(tmp_path, example6):
    path = tmp_path / "six.json"
    path.write_text(serialize_instance(example6))
    return str(path)


@pytest.fixture()
def small_path(tmp_path, cap_bound3):
    path = tmp_path / "small.json"
    path.write_text(serialize_instance(cap_bound3))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_brute_golden(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", example_path, "--method", "brute")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"method": "brute", "cost": 181, "routes": [[1, 2], [3, 6], [4, 5]]}


def test_solve_gas_matches_brute(capsys, small_path):
    code, out, _ = run_cli(capsys, "solve", small_path, "--method", "gas", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "gas"
    assert doc["cost"] == 18
    assert doc["trace"]["seed"] == 42
    assert doc["trace"]["thresholds"][-1]["M"] == 0


def test_solve_gas_requires_seed(capsys, small_path):
    code, _, err = run_cli(capsys, "solve", small_path, "--method", "gas")
    assert code == 2
    assert "seed" in err


def test_solve_heuristic(capsys, example_path):
    code, out, _ = run_cli(capsys, "solve", example_path, "--method", "heuristic")
    assert code == 0
    assert json.loads(out)["cost"] >= 181


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "does-not-exist.json")
    assert code == 2
    assert err


def test_infeasible_exit_code(capsys, tmp_path):
    doc = {
        "n": 1,
        "c_max": 2,
        "distance": [[0, 7], [7, 0]],
        "demands": [1],
        "windows": [[0, 3]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert code == 3


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("demands", 5, "demands must be an array"),
        ("windows", [3, 4], "window must be an array"),
        ("distance", [[0, 1, 4.7], [1, 0, 1], [2, 1, 0]], "distance entry must be an integer, not 4.7"),
        ("demands", [True, 1], "demand must be an integer, not true"),
    ],
)
def test_malformed_document_exit_code(capsys, tmp_path, field, value, message):
    doc = {"n": 2, "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}
    doc[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path), "--seed", "0")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_budget_exit_code(capsys, example_path):
    code, _, _ = run_cli(capsys, "solve", example_path, "--seed", "1", "--budget", "1")
    assert code == 4


def test_byte_identical_reruns(capsys, small_path):
    _, out1, _ = run_cli(capsys, "solve", small_path, "--seed", "7")
    _, out2, _ = run_cli(capsys, "solve", small_path, "--seed", "7")
    assert out1 == out2


def test_verify_oracle_exhaustive(capsys, small_path):
    code, out, _ = run_cli(capsys, "verify-oracle", small_path, "--k", "19")
    assert code == 0
    doc = json.loads(out)
    assert doc["assignments_checked"] == 512
    assert doc["mismatches"] == 0
    assert doc["dirty_ancillas"] == 0
    assert doc["decision_changed"] == 0


def test_verify_oracle_sample_mode(capsys, example_path):
    code, out, _ = run_cli(
        capsys, "verify-oracle", example_path, "--k", "272", "--mode", "sample", "--samples", "2000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["assignments_checked"] == 2000
    assert doc["mismatches"] == 0
    assert doc["decision_changed"] == 0


def test_verify_oracle_samples_are_half_well_formed(example6):
    indices = sample_indices(example6, 2000, 0)
    assert len(indices) == 2000
    formed = 0
    for index in indices:
        P, y = unpack_assignment(6, 3, int(index))
        formed += sorted(P) == [1, 2, 3, 4, 5, 6] and y[-1] == 1
    assert formed >= 1000
    np.testing.assert_array_equal(sample_indices(example6, 2000, 0), indices)


def test_verify_oracle_sample_mode_n9(capsys, tmp_path):
    doc = {
        "n": 9,
        "c_max": 4,
        "distance": [[0 if i == j else 1 + (i * j) % 5 for j in range(10)] for i in range(10)],
        "demands": [1, 2, 1, 1, 2, 1, 1, 2, 1],
    }
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify-oracle", str(path), "--k", "30", "--mode", "sample", "--samples", "400")
    assert code == 0
    assert json.loads(out) == {"assignments_checked": 400, "mismatches": 0, "dirty_ancillas": 0, "decision_changed": 0}


def test_verify_oracle_refuses_large_exhaustive(capsys, tmp_path):
    doc = {
        "n": 7,
        "c_max": 7,
        "distance": [[0 if i == j else 1 + (i + j) % 4 for j in range(8)] for i in range(8)],
        "demands": [1] * 7,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify-oracle", str(path), "--k", "5")
    assert code == 2
    assert "exceed" in err


def test_resources_reference_point(capsys):
    code, out, _ = run_cli(capsys, "resources", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["figure_qubits"] == pytest.approx(193.0)


def test_resources_instance(capsys, example_path):
    code, out, _ = run_cli(capsys, "resources", "--instance", example_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["widths"] == {"node": 3, "load": 3, "clock": 9, "cost": 10}
    assert doc["budget"]["total"] == 223
    assert doc["quoted_six_customer_qubits"] == 147


def test_resources_csv(capsys):
    code, out, _ = run_cli(capsys, "resources", "--n", "8", "--plot", "1:5", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,figure_qubits,budget_qubits"
    assert len(lines) == 6


def test_resources_bad_n(capsys):
    code, _, _ = run_cli(capsys, "resources", "--n", "-3")
    assert code == 2


def test_split_golden(capsys, example_path):
    code, out, _ = run_cli(capsys, "split", example_path, "--tour", "1,2,3,4,5,6")
    assert code == 0
    doc = json.loads(out)
    arcs = {(i, j): w for i, j, w in doc["arcs"]}
    assert arcs[(0, 1)] == 46
    assert (0, 3) not in arcs
    assert doc["cost"] == 218
    assert doc["split_y"] == [0, 1, 1, 0, 1, 1]


def test_split_rejects_bad_tour(capsys, example_path):
    code, _, _ = run_cli(capsys, "split", example_path, "--tour", "1,1,3,4,5,6")
    assert code == 2


def test_split_single_customer(capsys, tmp_path):
    doc = {"n": 1, "c_max": 2, "distance": [[0, 7], [7, 0]], "demands": [1]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "split", str(path), "--tour", "1")
    assert code == 0
    assert json.loads(out)["cost"] == 14


def test_split_infeasible_exit(capsys, tmp_path):
    doc = {
        "n": 1,
        "c_max": 2,
        "distance": [[0, 7], [7, 0]],
        "demands": [1],
        "windows": [[0, 3]],
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "split", str(path), "--tour", "1")
    assert code == 3


def test_stdout_is_single_json_document(capsys, small_path):
    for argv in (
        ("solve", small_path, "--method", "brute"),
        ("verify-oracle", small_path, "--k", "19"),
        ("resources", "--n", "4"),
        ("split", small_path, "--tour", "1,2,3"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out)  # exactly one parseable document
