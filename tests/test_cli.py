"""Command-line surface: JSON output, exit codes, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from cvrptw_gas import cli, oracle, resources
from cvrptw_gas.cli import main, sample_indices
from cvrptw_gas.grover import search_space
from cvrptw_gas.instance import pack_assignment, serialize_instance, unpack_assignment
from cvrptw_gas.resources import register_widths

from support import make_instance


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


def test_brute_cap_names_the_instance_size(capsys, tmp_path):
    n = 10
    doc = {
        "n": n,
        "c_max": 4,
        "distance": [[0 if i == j else 1 + (i * j) % 5 for j in range(n + 1)] for i in range(n + 1)],
        "demands": [1] * n,
    }
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert code == 2
    assert out == ""
    assert "capped at 9 customers, instance has 10" in err


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


def test_unknown_key_exit_code(capsys, tmp_path):
    doc = {"n": 2, "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}
    doc["window"] = [[0, 1], [0, 1]]
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "gas", "--seed", "0")
    assert code == 2
    assert out == ""
    assert "unknown field 'window'" in err
    assert "Traceback" not in err


def test_repeated_key_exit_code(capsys, tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text('{"n": 2, "n": 3, "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}')
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert (code, out, err) == (2, "", "error: repeated key 'n'\n")


DEEP = 100_000


@pytest.mark.parametrize(
    "argv,nest",
    [
        (["solve", "PATH", "--method", "gas", "--seed", "0"], "{}"),
        (["solve", "PATH", "--method", "brute"], '{{"n": 2, "c_max": 3, "distance": {}, "demands": [1, 1]}}'),
        (["verify-oracle", "PATH", "--k", "5"], "{}"),
        (["verify-oracle", "PATH", "--k", "5", "--mode", "sample"], "{}"),
        (["resources", "--instance", "PATH"], '{{"n": {}}}'),
        (["split", "PATH", "--tour", "1,2"], "{}"),
    ],
    ids=["solve-gas", "solve-brute", "verify-exhaustive", "verify-sample", "resources", "split"],
)
def test_deeply_nested_document_exit_code(capsys, tmp_path, argv, nest):
    """Every command that reads an instance exits 2 with one error line on a
    document json cannot read without a RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text(nest.format("[" * DEEP + "]" * DEEP))
    code, out, err = run_cli(capsys, *(str(path) if arg == "PATH" else arg for arg in argv))
    assert (code, out, err) == (2, "", "error: instance document is nested too deeply\n")


def test_huge_wrong_value_quoted_short(capsys, tmp_path):
    """A 200,000-element array where a distance entry belongs: the message
    quotes a short, marked prefix of it."""
    doc = {"n": 2, "c_max": 3, "distance": [[0, list(range(200_000)), 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert (code, out) == (2, "")
    assert err.startswith("error: distance entry must be an integer, not [0, 1, 2, ")
    assert err.endswith("... (1,488,890 characters)\n")
    assert err.count("\n") == 1 and len(err) < 150


def test_integer_past_digit_limit_exit_code(capsys, tmp_path):
    """A 5,000-digit integer: exit 2 with one short line, not Python's advice
    on raising its digit limit."""
    path = tmp_path / "digits.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "c_max": 3, "distance": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "demands": [1, 1]}')
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "brute")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 150
    assert "set_int_max_str_digits" not in err


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


@pytest.mark.parametrize("field", ["c_max", "distance"])
def test_verify_oracle_checks_sweep_range_before_building(capsys, tmp_path, monkeypatch, example6, field):
    """The example with c_max or one distance at 10^400: verify-oracle exits 2
    with the message solve gives, and builds no oracle; it used to build one
    with a 1,330-bit register first."""
    doc = json.loads(serialize_instance(example6))
    if field == "c_max":
        doc["c_max"] = 10**400
    else:
        doc["distance"][0][3] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, expected = run_cli(capsys, "solve", str(path), "--seed", "0")
    assert (code, out) == (2, "") and "64-bit limit" in expected

    def refuse(*args, **kwargs):
        raise AssertionError("built the oracle of an instance past the sweep's range")

    monkeypatch.setattr(oracle, "build_oracle", refuse)
    for mode in (["--mode", "sample", "--samples", "16"], ["--mode", "exhaustive"]):
        assert run_cli(capsys, "verify-oracle", str(path), "--k", "182", *mode) == (2, "", expected)


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
        ["solve", "--method", "brute", "--seed", "-1"],
        ["solve", "--method", "heuristic", "--seed", "-4"],
        ["verify-oracle", "--k", "5", "--seed", "-2"],
    ],
)
def test_negative_seed_names_the_option(capsys, small_path, argv):
    """Refused for every method and mode, including those that never read
    the seed."""
    code, out, err = run_cli(capsys, argv[0], small_path, *argv[1:])
    assert code == 2
    assert out == ""
    assert f"--seed must be nonnegative, got {argv[argv.index('--seed') + 1]}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--mode", "sample", "--samples", str(10**400)], f"samples exceed the cap of {1 << 20}"),
        (["--seed", str(-(10**70))], "--seed must be nonnegative, got -1"),
    ],
)
def test_huge_option_values_quoted_short(capsys, small_path, argv, message):
    """A number past 60 characters is cut, as a wrong value in a document
    is: one short line that still names the cap or the bound."""
    code, out, err = run_cli(capsys, "verify-oracle", small_path, "--k", "19", *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert "... (" in err and " characters)" in err
    assert err.count("\n") == 1 and len(err) < 150


def test_verify_oracle_help_names_the_scan_limits(capsys, monkeypatch):
    """The parser is built per call, so its help reads the current limits."""
    monkeypatch.setattr(oracle, "EXHAUSTIVE_SCAN_CAP_BITS", 31)
    monkeypatch.setattr(oracle, "_SCAN_CHUNK_BITS", 13)
    monkeypatch.setattr(cli, "SAMPLE_CAP", 77)
    code, out, _ = run_cli(capsys, "verify-oracle", "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse rewraps to the terminal width
    assert "up to 31 decision bits" in text
    assert "in chunks of 2^13," in text
    assert "candidates; at most 77" in text


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


def _drop_last_gate_on(circuit, targets):
    del circuit.gates[max(i for i, g in enumerate(circuit.gates) if g.target in targets)]
    return circuit


# counter: (oracle function to replace, the faulty one made from the real one)
VERIFY_FAULTS = {
    # A chain built wrong: the uniqueness chain loses its final AND, so
    # nothing is marked, and the mirror clears what is left.
    "mismatches": (
        "build_uniqueness",
        lambda real: lambda layout: _drop_last_gate_on(real(layout), {layout.valid_tour}),
    ),
    # The mirror alone loses its last gate on a range flag, so the flag
    # stays set.
    "dirty_ancillas": (
        "build_oracle",
        lambda real: lambda inst, k: _drop_last_gate_on(real(inst, k), oracle.build_layout(inst, k).in_range.qubits()),
    ),
    # The mirror alone loses its last gate on a tour qubit, which restores
    # a code a pair flag XORed into it.
    "decision_changed": (
        "build_oracle",
        lambda real: lambda inst, k: _drop_last_gate_on(
            real(inst, k), {q for ref in oracle.build_layout(inst, k).tour for q in ref.qubits()}
        ),
    ),
}


@pytest.mark.parametrize("counter", sorted(VERIFY_FAULTS))
def test_verify_oracle_mismatch_exit_code(capsys, small_path, monkeypatch, counter):
    """A faulty oracle exits 5 with its report on stdout, the counter that
    caught it nonzero, and one line on stderr."""
    name, make_faulty = VERIFY_FAULTS[counter]
    monkeypatch.setattr(oracle, name, make_faulty(getattr(oracle, name)))
    code, out, err = run_cli(capsys, "verify-oracle", small_path, "--k", "19")
    assert code == cli.EXIT_MISMATCH == 5
    assert json.loads(out)[counter] > 0
    assert err == "oracle disagrees with the reference marks\n"


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


def test_verify_oracle_samples_cap(capsys, small_path, monkeypatch):
    """The cap runs; one past it exits 2 naming both numbers, before any
    draw. The cap is patched small to keep the run short."""
    monkeypatch.setattr(cli, "SAMPLE_CAP", 64)
    argv = ("verify-oracle", small_path, "--k", "19", "--mode", "sample", "--samples")
    code, out, _ = run_cli(capsys, *argv, "64")
    assert code == 0
    assert json.loads(out)["assignments_checked"] == 64
    code, out, err = run_cli(capsys, *argv, "65")
    assert code == 2
    assert out == ""
    assert "error: 65 samples exceed the cap of 64" in err


@pytest.mark.parametrize("samples", [1 << 20 | 1, 1 << 40, 10**400])
def test_verify_oracle_refuses_samples_past_the_cap(capsys, small_path, samples):
    """Counts that would ask NumPy for terabytes, or past its largest
    dimension, exit 2 naming the cap rather than failing inside the draw."""
    argv = ("verify-oracle", small_path, "--k", "19", "--mode", "sample", "--samples", str(samples))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {str(samples)[:60]}")
    assert err.endswith(f" samples exceed the cap of {1 << 20}\n")


@pytest.mark.parametrize("n", [1, 2, 6, 12])
@pytest.mark.parametrize("samples", [1, 2, 7, 1000])
@pytest.mark.parametrize("seed", [0, 3])
def test_sample_indices_pack_like_pack_assignment(n, samples, seed):
    """The well-formed half, packed in one array pass, equals the scalar
    packing of the same seeded draws, one sample at a time."""
    inst = make_instance(
        {
            "n": n,
            "c_max": n,
            "distance": [[0 if i == j else 1 + (i + j) % 3 for j in range(n + 1)] for i in range(n + 1)],
            "demands": [1] * n,
        }
    )
    b_node = register_widths(inst).b_node
    bits = search_space(inst).decision_bits
    rng = np.random.default_rng(seed)
    formed = samples // 2
    uniform = rng.integers(0, 1 << bits, size=samples - formed, dtype=np.int64)
    tours = np.argsort(rng.random((formed, n)), axis=1) + 1
    splits = rng.integers(0, 2, size=(formed, n - 1))
    packed = [pack_assignment(n, b_node, P, (*y, 1)) for P, y in zip(tours.tolist(), splits.tolist())]
    got = sample_indices(inst, samples, seed)
    assert got.dtype == np.int64 and len(got) == samples
    assert got.tolist() == uniform.tolist() + packed


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
    assert doc["widths"] == {"node": 3, "load": 3, "clock": 0, "cost": 9}
    assert doc["budget"]["total"] == 90
    assert doc["quoted_six_customer_qubits"] == 147
    assert hashlib.sha256(out.encode()).hexdigest() == "7af42ec71a5c7252a54a482b1016121cdff19bfc158ea550efa8d069f268f192"


def test_resources_csv(capsys):
    code, out, _ = run_cli(capsys, "resources", "--n", "8", "--plot", "1:5", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,figure_qubits,budget_qubits"
    assert len(lines) == 6


@pytest.mark.parametrize("csv", [[], ["--csv"]])
def test_resources_plot_row_cap(capsys, monkeypatch, csv):
    """A --plot range longer than the row cap exits 2 with one line naming the
    cap, before any row is built; the cap itself is allowed. The boundary is
    checked at a cap of 3, since 100,000 rows take seconds to build."""
    refused = f"error: plot range longer than the cap of {resources.PLOT_ROW_CAP} rows\n"
    assert resources.PLOT_ROW_CAP == 100_000
    for plot in ("1:100001", "5:100005", "1:10000000000", f"1:{10**400}"):
        assert run_cli(capsys, "resources", "--plot", plot, *csv) == (2, "", refused)
    monkeypatch.setattr(resources, "PLOT_ROW_CAP", 3)
    code, out, err = run_cli(capsys, "resources", "--plot", "4:6", *csv)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:] if csv else json.loads(out)["rows"]
    assert len(rows) == 3
    refused = "error: plot range longer than the cap of 3 rows\n"
    assert run_cli(capsys, "resources", "--plot", "4:7", *csv) == (2, "", refused)


def test_resources_bad_n(capsys):
    code, _, _ = run_cli(capsys, "resources", "--n", "-3")
    assert code == 2


ZERO_MAXIMA_DOCUMENTS = (
    {"n": 2, "c_max": 3, "distance": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "demands": [1, 1]},
    {
        "n": 2,
        "c_max": 3,
        "distance": [[0, 4, 5], [4, 0, 2], [5, 2, 0]],
        "time": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "demands": [1, 2],
        "windows": [[0, 0], [0, 0]],
    },
)


def test_resources_zero_maxima_name_the_parameter(capsys, tmp_path):
    """The qubit budget takes a maximum of 0, but the log2 figure does not.
    With explicit maxima the command exits 2, naming the parameter that is 0.
    On a document whose cost bound (all distances 0) or latest window close
    (all windows close at 0) is 0, it reports the figure as null beside the
    budget, which equals the layout."""
    code, out, err = run_cli(capsys, "resources", "--n", "8", "--d-max", "0")
    assert (code, out, err) == (2, "", "error: d_max must be at least 1, got 0\n")
    path = tmp_path / "zero.json"
    for doc in ZERO_MAXIMA_DOCUMENTS:
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "resources", "--instance", str(path))
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["figure_qubits"] is None
        assert report["budget"]["total"] == oracle.build_layout(make_instance(doc), 0).qubit_count


def test_resources_huge_n_exit_code(capsys):
    """An n whose smooth figure is past the float range exits 2 naming n,
    where the float conversion used to escape as an OverflowError."""
    for argv in (["--n", str(1 << 600)], ["--plot", f"{1 << 600}:{1 << 600}"]):
        code, out, err = run_cli(capsys, "resources", *argv)
        assert (code, out, err) == (2, "", "error: n of 601 bits puts the smooth figure past the float range\n")


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
    """build_auxiliary_graph refuses a tour that is not a permutation; the
    command passes its message on as its one error line."""
    for tour in ("1,1,3,4,5,6", "1,1"):
        code, out, err = run_cli(capsys, "split", example_path, "--tour", tour)
        assert (code, out, err) == (2, "", "error: tour is not a permutation of the customers\n")


def test_split_rejects_a_tour_that_is_not_integers(capsys, example_path):
    code, out, err = run_cli(capsys, "split", example_path, "--tour", "1,x")
    assert (code, out) == (2, "")
    assert err.startswith("error: tour must be comma-separated customer ids: ")


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
