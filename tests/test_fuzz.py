"""Seeded fuzzing of the command line over malformed documents and argv.

Each case mutates README's two-customer document or the bundled example and
runs it through ``cli.main`` in process: keys are dropped, repeated, renamed
and retyped, arrays nested, rows shortened and lengthened, values replaced
by 0, -1, 100, 2^63, 10^400, booleans, 1.5, NaN and strings, and bytes that
are not UTF-8 written into the text. The argv cases replace, drop and repeat the
words of valid command lines. The invariant, on every case:

* the exit code is 0, 2, 3 or 4, and no exception escapes ``main``;
* an exit 2 writes nothing to stdout and exactly one ``error:`` line to
  stderr;
* every text that ``parse_instance`` accepts also passes ``resources
  --instance``, and, when ``grover.check_sweep_range`` accepts its
  instance, the exhaustive ``verify-oracle`` of a two-customer one.

Only the standard library's ``random`` drives it, over fixed seeds, so a
failing case replays exactly.
"""

import copy
import json
import math
import random

import pytest

from cvrptw_gas.cli import main
from cvrptw_gas.grover import check_sweep_range
from cvrptw_gas.instance import InstanceError, parse_instance, serialize_instance, six_customer_example

TWO_CUSTOMER = {
    "n": 2,
    "c_max": 3,
    "distance": [[0, 4, 5], [4, 0, 2], [5, 2, 0]],
    "time": [[0, 4, 5], [4, 0, 2], [5, 2, 0]],
    "demands": [1, 2],
    "windows": [[0, 10], [3, 12]],
}
EXAMPLE = json.loads(serialize_instance(six_customer_example()))
# 100 as a travel time outlasts every window close of both base documents.
ODD_INTEGERS = (0, -1, 100, 2**63, 10**400)
ODD_VALUES = ODD_INTEGERS + (True, False, 1.5, math.nan, "7")
ODD_KEYS = ("N", "window", "demand", "", "distance ", "c-max", "0")
BAD_UTF8 = (b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf0\x28\x8c")
BIG = str(10**400)
# Replacement words for the argv cases. "1:{BIG}" is a --plot range past the
# row cap, which resources refuses before it builds a row.
ODD_WORDS = ("0", "-1", "1", "1.5", "nan", "", "abc", BIG, "--bogus", "--seed", "1,1", "3:1", "1:3")
ODD_WORDS += (f"{BIG}:{BIG}", f"1:{BIG}")
EXIT_CODES = {0, 2, 3, 4}


def _nodes(value, path=()):
    """Paths of every array and entry inside a JSON value, its own first."""
    yield path
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _at(value, path):
    for i in path:
        value = value[i]
    return value


def _replace(pairs, key_index, path, make):
    """Replace the node at ``path`` in the value of ``pairs[key_index]`` by
    ``make(node)``."""
    key, value = pairs[key_index]
    if path:
        parent = _at(value, path[:-1])
        parent[path[-1]] = make(parent[path[-1]])
    else:
        pairs[key_index] = (key, make(value))


def _pick(rng, pairs, keep=lambda node: True):
    """``(key index, path)`` of a random node that ``keep`` accepts, inside
    the value of a random key; None when that value has no such node."""
    key_index = rng.randrange(len(pairs))
    value = pairs[key_index][1]
    paths = [p for p in _nodes(value) if keep(_at(value, p))]
    return (key_index, rng.choice(paths)) if paths else None


def _drop_key(rng, pairs):
    pairs.pop(rng.randrange(len(pairs)))


def _repeat_key(rng, pairs):
    key, value = rng.choice(pairs)
    pairs.insert(rng.randrange(len(pairs) + 1), (key, copy.deepcopy(value)))


def _rename_key(rng, pairs):
    i = rng.randrange(len(pairs))
    pairs[i] = (rng.choice(ODD_KEYS), pairs[i][1])


def _retype_key(rng, pairs):
    i = rng.randrange(len(pairs))
    key, value = pairs[i]
    pairs[i] = (key, rng.choice((None, {}, "text", json.dumps(value), {"v": value}, [value], 7)))


def _nest(rng, pairs):
    depth = rng.choice((1, 2, 3))
    _replace(pairs, *_pick(rng, pairs), lambda node: json.loads("[" * depth + json.dumps(node) + "]" * depth))


def _resize(rng, pairs):
    picked = _pick(rng, pairs, lambda node: isinstance(node, list))
    if picked is None:
        return

    def resized(node):
        if node and rng.random() < 0.5:
            return node[: rng.randrange(len(node))]
        return node + [copy.deepcopy(node[-1]) if node else 0]

    _replace(pairs, *picked, resized)


def _odd_value(rng, pairs, values=ODD_VALUES):
    picked = _pick(rng, pairs, lambda node: not isinstance(node, list))
    if picked is not None:
        value = rng.choice(values)
        _replace(pairs, *picked, lambda node: value)


MUTATIONS = (_drop_key, _repeat_key, _rename_key, _retype_key, _nest, _resize, _odd_value)


def mutated_document(rng) -> tuple[bytes, bool]:
    """A mutated base document, as the bytes of a file, and whether the base
    was the two-customer one. Half the cases take one odd integer and nothing
    else: those are the documents parse_instance can accept, and so the ones
    that reach the commands behind it. The rest take one to three mutations
    of any kind."""
    small = rng.random() < 0.5
    pairs = copy.deepcopy(list((TWO_CUSTOMER if small else EXAMPLE).items()))
    if rng.random() < 0.5:
        _odd_value(rng, pairs, ODD_INTEGERS)
    else:
        for _ in range(rng.randint(1, 3)):
            if pairs:
                rng.choice(MUTATIONS)(rng, pairs)
    raw = ("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}").encode()
    if rng.random() < 0.1:
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + rng.choice(BAD_UTF8) + raw[at:]
    return raw, small


def document_commands(rng, path: str, small: bool) -> list[list[str]]:
    """``resources --instance`` and one other command on the document, with
    small budgets and sample counts, and the exhaustive scan of a
    two-customer one (6 decision bits)."""
    seed = str(rng.randrange(100))
    k = str(rng.choice((0, 1, 12, 150, 200, 10**400)))
    tour = ",".join(map(str, rng.sample(range(1, 3 if small else 7), 2 if small else 6)))
    other = rng.choice(
        (
            ["solve", path, "--seed", seed, "--budget", str(rng.choice((0, 5, 100)))],
            ["solve", path, "--method", "brute"],
            ["solve", path, "--method", "heuristic"],
            ["verify-oracle", path, "--k", k, "--mode", "sample", "--samples", "8", "--seed", seed],
            ["split", path, "--tour", tour],
        )
    )
    commands = [["resources", "--instance", path], other]
    if small:
        commands.append(["verify-oracle", path, "--k", k])
    return commands


def mutated_argv(rng, path: str) -> list[str]:
    """A valid command line on the two-customer document with one to three
    words replaced, dropped or repeated."""
    argv = rng.choice(
        (
            ["solve", path, "--seed", "3", "--budget", "50", "--initial-k", "20"],
            ["solve", path, "--method", "brute"],
            ["verify-oracle", path, "--k", "12", "--mode", "sample", "--samples", "8", "--seed", "1"],
            ["resources", "--n", "4", "--d-max", "8", "--t-max", "8", "--w-max", "64"],
            ["resources", "--n", "4", "--plot", "1:3", "--csv"],
            ["split", path, "--tour", "2,1"],
        )
    )
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        roll = rng.random()
        if roll < 0.6:
            argv[i] = rng.choice(ODD_WORDS)
        elif roll < 0.8:
            del argv[i]
        else:
            argv.insert(i, argv[i])
        if not argv:
            break
    return argv


def must_pass(raw: bytes, argv) -> bool:
    """Whether ``argv`` on the document ``raw`` has to exit 0: ``resources``
    on any text ``parse_instance`` accepts, and an exhaustive scan whose
    instance the reference sweep also accepts."""
    try:
        inst = parse_instance(raw.decode("utf-8"))
    except (UnicodeDecodeError, InstanceError):
        return False
    if argv[0] == "resources":
        return True
    if argv[0] != "verify-oracle" or "--mode" in argv:
        return False
    try:
        check_sweep_range(inst)
    except ValueError:
        return False
    return True


def check_run(capsys, argv) -> int:
    """Run one command line in process and check the invariant's first two parts."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in EXIT_CODES, (argv, code, err)
    if code == 2:
        assert out == "", argv
        assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)
    return code


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_documents(capsys, tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "doc.json"
    for _ in range(60):
        raw, small = mutated_document(rng)
        path.write_bytes(raw)
        for argv in document_commands(rng, str(path), small):
            code = check_run(capsys, argv)
            if must_pass(raw, argv):
                assert code == 0, (argv[0], raw[:200])


@pytest.mark.parametrize("seed", range(2))
def test_fuzz_argv(capsys, tmp_path, seed):
    rng = random.Random(100 + seed)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_CUSTOMER))
    for _ in range(60):
        check_run(capsys, mutated_argv(rng, str(path)))
