"""Command-line surface: JSON output, exit codes, reproducibility."""

import hashlib
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


def test_solve_heuristic_past_held_karp_cap(capsys, tmp_path):
    """n = 13 takes the nearest-neighbour tour instead of Held-Karp."""
    n = 13
    doc = {
        "n": n,
        "c_max": 5,
        "distance": [[0 if i == j else 1 + (3 * i + 5 * j) % 11 for j in range(n + 1)] for i in range(n + 1)],
        "demands": [1 + i % 3 for i in range(n)],
    }
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "heuristic")
    assert code == 0
    routes = json.loads(out)["routes"]
    assert sorted(v for route in routes for v in route) == list(range(1, n + 1))


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


BIG = 1 << 62


@pytest.mark.parametrize(
    "doc,what,optimum",
    [
        ({"distance": [[0, BIG, 1], [BIG, 0, 1], [1, 1, 0]]}, "cost bound", BIG + 2),
        ({"distance": [[0, 10**30, 1], [10**30, 0, 1], [1, 1, 0]]}, "cost bound", 10**30 + 2),
        ({"distance": [[0, 2, 1], [2, 0, 1], [1, 1, 0]], "windows": [[BIG, BIG + 5], [0, 1 << 63]]}, "clock", 4),
    ],
)
def test_sweep_refuses_values_past_int64(capsys, tmp_path, doc, what, optimum):
    """An int64 sweep would wrap (a negative GAS cost, false verify mismatches)
    or raise OverflowError; both commands refuse the instance instead, and
    brute force, on Python ints, still answers."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 2, "c_max": 3, "demands": [1, 1], **doc}))
    for argv in (["solve", "--method", "gas", "--seed", "0"], ["verify-oracle", "--k", "5"]):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2, argv
        assert out == ""
        assert f"sweep's {what} can reach" in err and "64-bit limit" in err
        assert "Traceback" not in err
    code, out, _ = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert code == 0
    assert json.loads(out)["cost"] == optimum


def test_sweep_keeps_large_values_that_fit(capsys, tmp_path):
    """Distances of 2^60 put the cost bound at 2^62: no refusal, and GAS
    agrees with brute force to the unit."""
    d = 1 << 60
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"n": 2, "c_max": 3, "distance": [[0, d, 1], [d, 0, 1], [1, 1, 0]], "demands": [1, 1]}))
    _, brute, _ = run_cli(capsys, "solve", str(path), "--method", "brute")
    code, gas, _ = run_cli(capsys, "solve", str(path), "--method", "gas", "--seed", "0")
    assert code == 0
    assert json.loads(gas)["cost"] == json.loads(brute)["cost"] == d + 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--method", "gas", "--seed", "-1"],
        ["verify-oracle", "--k", "19", "--mode", "sample", "--samples", "10", "--seed", "-1"],
    ],
)
def test_negative_seed_names_the_option(capsys, small_path, argv):
    code, out, err = run_cli(capsys, argv[0], small_path, *argv[1:])
    assert code == 2
    assert out == ""
    assert "--seed must be nonnegative, got -1" in err


def test_budget_exit_code(capsys, example_path):
    code, _, _ = run_cli(capsys, "solve", example_path, "--seed", "1", "--budget", "1")
    assert code == 4


def test_budget_exhausted_past_the_first_thresholds(capsys, example_path):
    """Seed 1 finds costs below 273 and 262 first; the 300-call budget runs out
    at the third threshold, so the calls carried across thresholds count."""
    code, out, err = run_cli(capsys, "solve", example_path, "--seed", "1", "--budget", "300")
    assert code == 4
    assert out == ""
    assert err == "budget: oracle-call budget 300 exhausted at threshold 240\n"


def test_solve_rejects_negative_budget(capsys, example_path):
    code, out, err = run_cli(capsys, "solve", example_path, "--seed", "1", "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget" in err
    # A zero budget is valid input: the search runs and exhausts it.
    code, _, err = run_cli(capsys, "solve", example_path, "--seed", "1", "--budget", "0")
    assert code == 4
    assert "budget 0 exhausted" in err


def test_byte_identical_reruns(capsys, small_path):
    _, out1, _ = run_cli(capsys, "solve", small_path, "--seed", "7")
    _, out2, _ = run_cli(capsys, "solve", small_path, "--seed", "7")
    assert out1 == out2


@pytest.mark.parametrize(
    "seed,digest",
    [
        ("0", "a75115720738d77b2f93af4b4d4a072bd98bdb977bf9b90fee923b7fbe771fc3"),
        ("42", "f40d8429130dd80f9dc3bdd40c303880715ede92007200935b0394429ba16914"),
    ],
)
def test_solve_gas_stdout_pinned(capsys, example_path, seed, digest):
    """Seeded GAS output on the paper's example, byte for byte: any change to
    the search schedule, the sweep or the trace layout moves these digests."""
    code, out, _ = run_cli(capsys, "solve", example_path, "--method", "gas", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_oracle_exhaustive(capsys, small_path):
    """The report is pinned as printed, so key names and order count too
    (here and in sample mode)."""
    code, out, _ = run_cli(capsys, "verify-oracle", small_path, "--k", "19")
    assert code == 0
    assert out == '{"assignments_checked": 512, "mismatches": 0, "dirty_ancillas": 0, "decision_changed": 0}\n'


def test_verify_oracle_sample_mode(capsys, example_path):
    code, out, _ = run_cli(
        capsys, "verify-oracle", example_path, "--k", "182", "--mode", "sample", "--samples", "2000", "--seed", "0"
    )
    assert code == 0
    assert out == '{"assignments_checked": 2000, "mismatches": 0, "dirty_ancillas": 0, "decision_changed": 0}\n'


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_oracle_rejects_nonpositive_samples(capsys, small_path, samples):
    """A sample scan of no states would check nothing and still pass."""
    code, out, err = run_cli(capsys, "verify-oracle", small_path, "--k", "19", "--mode", "sample", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "--samples" in err


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


@pytest.mark.parametrize("n", [12, 13])
def test_verify_oracle_sample_mode_int64_limit(capsys, tmp_path, n):
    """Sampled indices are int64: n = 12 (60 decision bits) scans clean, and
    n = 13 (65 bits) is refused with the bit count and the 63-bit limit."""
    doc = {
        "n": n,
        "c_max": 4,
        "distance": [[0 if i == j else 1 + (i * j) % 5 for j in range(n + 1)] for i in range(n + 1)],
        "demands": [1 + i % 2 for i in range(n)],
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify-oracle", str(path), "--k", "50", "--mode", "sample", "--samples", "200")
    if n == 12:
        assert code == 0
        assert json.loads(out) == {"assignments_checked": 200, "mismatches": 0, "dirty_ancillas": 0, "decision_changed": 0}
    else:
        assert code == 2
        assert out == ""
        assert err == "error: 65 decision bits exceed the 63-bit limit of int64 sample indices\n"


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
    assert hashlib.sha256(out.encode()).hexdigest() == "bca95f8d5b4b90261fd9ddd35937258c3b68439ddaae869833926ac31c3da9a0"


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
