"""End-to-end command-line tests: every subcommand, all three output
formats, exit codes, and determinism. Each test drives main() directly."""

import copy
import json
import random

import pytest

from erasurelab.cli import main
from erasurelab.codes import construction_one, cyclic_from_h, mds_code

H831 = [
    [1, 0, 0, 1, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0, 0, 1],
    [0, 0, 1, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1, 2, 2],
]


def _run_json(capsys, argv):
    rc = main(argv + ["--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


def _table_dict(out):
    rows = {}
    for line in out.splitlines():
        key, _, value = line.partition("  ")
        rows[key.rstrip()] = value.lstrip()
    return rows


def test_construct_c1_golden(capsys):
    rc, doc = _run_json(
        capsys, ["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1"]
    )
    assert rc == 0
    meta = doc["meta"]
    assert meta["tool"] == "erasurelab"
    assert meta["version"] == "0.1.0"
    assert meta["command"] == "construct"
    assert meta["field"] == {"q": 3, "modulus": []}
    assert meta["config"]["n"] == 8 and meta["config"]["scheme"] == "c1"
    result = doc["result"]
    assert result["H"]["data"] == H831
    assert (result["n"], result["k"]) == (8, 4)
    assert result["provenance"]["construction"] == "construction_one"


def test_construct_writes_a_loadable_code_file(capsys, tmp_path):
    path = str(tmp_path / "code.json")
    rc, _ = _run_json(
        capsys,
        ["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path],
    )
    assert rc == 0
    saved = json.loads((tmp_path / "code.json").read_text())
    assert saved["H"]["data"] == H831
    rc, doc = _run_json(capsys, ["verify", "--code", path, "--b1", "3", "--b2", "1"])
    assert rc == 0
    assert doc["result"]["verdict"] is True


def test_construct_domain_error_exits_2(capsys):
    rc, doc = _run_json(
        capsys, ["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "2"]
    )
    assert rc == 2
    assert doc["error"]["type"] == "DivisibilityViolation"


def test_construct_missing_flags_exit_2(capsys):
    rc, doc = _run_json(capsys, ["construct", "--scheme", "c1", "--n", "8"])
    assert rc == 2
    assert doc["error"]["type"] == "BadParameters"
    assert "--b1" in doc["error"]["message"] and "--b2" in doc["error"]["message"]


def test_verify_streaming_pass(capsys, tmp_path):
    path = str(tmp_path / "c1.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path])
    capsys.readouterr()
    rc, doc = _run_json(
        capsys,
        ["verify", "--code", path, "--a", "1", "--b", "3", "--e", "1", "--w", "8"],
    )
    assert rc == 0
    assert doc["result"] == {"verdict": True, "witness": None, "patterns_checked": 114}


def test_verify_streaming_fail_exits_1(capsys, tmp_path):
    path = str(tmp_path / "mds63.json")
    main(["construct", "--scheme", "mds", "--n", "6", "--r", "3", "--out", path])
    capsys.readouterr()
    rc, doc = _run_json(
        capsys,
        ["verify", "--code", path, "--a", "2", "--b", "3", "--e", "1", "--w", "6"],
    )
    assert rc == 1
    assert doc["result"]["verdict"] is False
    assert doc["result"]["witness"] == {"n": 6, "support": [0, 1, 2, 3]}


def test_verify_wraparound_mode(capsys, tmp_path):
    path = str(tmp_path / "c1841.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "4", "--b2", "1", "--out", path])
    capsys.readouterr()
    rc, doc = _run_json(
        capsys, ["verify", "--code", path, "--b1", "4", "--b2", "1", "--wraparound"]
    )
    assert rc == 0 and doc["result"]["verdict"] is True


def test_verify_needs_exactly_one_mode(capsys, tmp_path):
    path = str(tmp_path / "c1.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path])
    capsys.readouterr()
    rc, doc = _run_json(capsys, ["verify", "--code", path])
    assert rc == 2 and doc["error"]["type"] == "BadParameters"
    rc, doc = _run_json(
        capsys, ["verify", "--code", path, "--w", "8", "--b1", "3", "--b2", "1"]
    )
    assert rc == 2 and doc["error"]["type"] == "BadParameters"


def test_verify_missing_file_exits_2(capsys, tmp_path):
    rc, doc = _run_json(
        capsys, ["verify", "--code", str(tmp_path / "nope.json"), "--b1", "2", "--b2", "1"]
    )
    assert rc == 2
    assert doc["error"]["type"] == "FileNotFoundError"


def test_analyze_rate(capsys):
    rc, doc = _run_json(
        capsys, ["analyze", "rate", "--a", "2", "--b", "3", "--e", "1", "--w", "8"]
    )
    assert rc == 0
    result = doc["result"]
    assert result["r_opt"] == "1/2"
    assert result["prior_bound"] == "4/7"
    assert result["m"] == 2
    assert (result["n"], result["k"]) == (8, 4)


def test_analyze_cyclic(capsys):
    rc, doc = _run_json(
        capsys, ["analyze", "cyclic", "--n", "7", "--q", "2", "--h", "1,0,1,1,1"]
    )
    assert rc == 0
    assert doc["result"] == {
        "n": 7,
        "k": 4,
        "q": 2,
        "z": 1,
        "bound": 3,
        "d": 3,
        "meets_bound": True,
        "witness": {"n": 7, "support": [0, 1, 3]},
    }


def test_analyze_sparsity(capsys):
    rc, doc = _run_json(capsys, ["analyze", "sparsity", "--n", "8", "--b", "3"])
    assert rc == 0
    assert doc["result"] == {
        "n": 8,
        "b": 3,
        "minimum_nonzeros": 15,
        "field_size_lower_bound": 2,
    }


def test_analyze_fieldbound(capsys):
    rc, doc = _run_json(
        capsys, ["analyze", "fieldbound", "--n", "7", "--b", "2", "--e", "2"]
    )
    assert rc == 0
    assert doc["result"]["field_size_lower_bound"] == 3
    assert doc["result"]["conditional"] is True
    rc, doc = _run_json(
        capsys, ["analyze", "fieldbound", "--n", "7", "--b", "2", "--e", "1"]
    )
    assert rc == 2 and doc["error"]["type"] == "OutOfScope"


def test_search_found_and_reverifiable(capsys, tmp_path):
    path = str(tmp_path / "found.json")
    rc, doc = _run_json(
        capsys,
        ["search", "--n", "5", "--b1", "2", "--b2", "1", "--q", "3", "--out", path],
    )
    assert rc == 0
    assert doc["meta"]["threads"] == 1
    assert doc["result"]["found"] is True
    assert doc["result"]["code"]["H"]["data"] == [
        [1, 2, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1],
    ]
    rc, doc = _run_json(capsys, ["verify", "--code", path, "--b1", "2", "--b2", "1"])
    assert rc == 0 and doc["result"]["verdict"] is True


def test_search_not_found_exits_1(capsys):
    rc, doc = _run_json(capsys, ["search", "--n", "5", "--b1", "2", "--b2", "1", "--q", "2"])
    assert rc == 1
    assert doc["result"] == {"found": False}


def test_search_needs_exactly_one_family(capsys):
    rc, doc = _run_json(
        capsys, ["search", "--n", "5", "--q", "2", "--b1", "2", "--b2", "1", "--b", "2"]
    )
    assert rc == 2 and doc["error"]["type"] == "BadParameters"
    rc, doc = _run_json(capsys, ["search", "--n", "5", "--q", "2"])
    assert rc == 2 and doc["error"]["type"] == "BadParameters"


def _write_mds72(capsys, tmp_path):
    path = str(tmp_path / "mds72.json")
    main(["construct", "--scheme", "mds", "--n", "7", "--r", "5", "--out", path])
    capsys.readouterr()
    return path


def test_simulate_clean_run(capsys, tmp_path):
    path = _write_mds72(capsys, tmp_path)
    argv = [
        "simulate", "--code", path,
        "--a", "2", "--b", "3", "--e", "2", "--w", "7",
        "--source", "periodic", "--periods", "3", "--seed", "11",
    ]
    rc, doc = _run_json(capsys, argv)
    assert rc == 0
    assert doc["result"] == {
        "slots": 21,
        "admissible": True,
        "windows_inadmissible": 0,
        "messages_failed": 0,
        "deadline_misses": 0,
        "seed": 11,
    }


def test_simulate_losses_exit_1(capsys, tmp_path):
    path = _write_mds72(capsys, tmp_path)
    argv = [
        "simulate", "--code", path,
        "--a", "2", "--b", "3", "--e", "2", "--w", "7",
        "--source", "ge", "--slots", "40", "--seed", "5",
        "--p-gb", "1.0", "--p-bg", "0.0", "--p-loss-good", "0.0", "--p-loss-bad", "1.0",
    ]
    rc, doc = _run_json(capsys, argv)
    assert rc == 1
    assert doc["result"]["messages_failed"] == 33
    assert doc["result"]["admissible"] is False


def test_simulate_inadmissible_periodic_params_exit_2(capsys, tmp_path):
    path = str(tmp_path / "c1.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path])
    capsys.readouterr()
    argv = [
        "simulate", "--code", path,
        "--a", "1", "--b", "3", "--e", "1", "--w", "8",
        "--source", "periodic", "--periods", "2", "--seed", "1",
    ]
    rc, doc = _run_json(capsys, argv)
    assert rc == 2
    assert doc["error"]["type"] == "ParameterViolation"


def test_simulate_requires_seed_and_source(capsys, tmp_path):
    path = _write_mds72(capsys, tmp_path)
    rc = main(["simulate", "--code", path, "--source", "periodic", "--periods", "3"])
    capsys.readouterr()
    assert rc == 2  # argparse rejects the missing --seed


def test_cli_output_is_byte_identical_across_runs(capsys, tmp_path):
    path = _write_mds72(capsys, tmp_path)
    argv = [
        "simulate", "--code", path,
        "--a", "2", "--b", "3", "--e", "2", "--w", "7",
        "--source", "ge", "--slots", "60", "--seed", "1", "--format", "json",
        "--p-gb", "0.1", "--p-bg", "0.5", "--p-loss-good", "0.05", "--p-loss-bad", "0.8",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_csv_format(capsys):
    rc = main(["analyze", "sparsity", "--n", "8", "--b", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "result.minimum_nonzeros,15" in lines
    assert "result.field_size_lower_bound,2" in lines
    assert "meta.version,0.1.0" in lines


def test_table_format_is_aligned(capsys):
    rc = main(["analyze", "sparsity", "--n", "8", "--b", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = _table_dict(out)
    assert rows["result.minimum_nonzeros"] == "15"
    assert rows["meta.command"] == "analyze sparsity"
    # every key is padded to the same width, so values share one column
    lines = out.splitlines()
    keys = [line.split(" ", 1)[0] for line in lines]
    width = max(len(k) for k in keys)
    for line, key in zip(lines, keys):
        assert line[:width] == key.ljust(width)
        assert line[width : width + 2] == "  "


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "erasurelab 0.1.0"


def test_unknown_flag_exits_2(capsys):
    rc = main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--bogus"])
    capsys.readouterr()
    assert rc == 2


# ---------------------------------------------------------------------------
# malformed code files
# ---------------------------------------------------------------------------

_BAD_SCALARS = ["abc", "5", "", 5.9, 3.0, True, False, None, [], {}, [1],
                float("nan"), float("inf")]
_BAD_CONTAINERS = [5, "abc", None, True, 2.5, ["abc"]]
_OPTIONAL = ("modulus", "provenance")  # a code file may leave these out


def _code_file_mutants(seed, count):
    """Valid code files with one defect each: a wrong type, a bool, a float
    (also one equal to the right integer), a string, ragged data, a missing
    key, a huge or non-prime-power q, or a declared size that is wrong."""
    rng = random.Random(seed)
    bases = [
        construction_one(8, 3, 1).to_json(),
        mds_code(8, 3).to_json(),  # GF(8): nonempty modulus
        cyclic_from_h(7, 2, (1, 0, 1, 1, 1)).to_json(),
    ]
    bad_sizes = _BAD_SCALARS + [-1, 0, 10**12]
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(bases))
        h = doc["H"]
        i = rng.randrange(len(h["data"]))
        j = rng.randrange(len(h["data"][i]))
        slots = [
            (doc, "n", bad_sizes),
            (doc, "k", bad_sizes),
            (h, "rows", bad_sizes),
            (h, "cols", bad_sizes),
            (h, "q", _BAD_SCALARS + [0, 1, 6, 12, -4, 2**40, 10**30]),
            (h, "data", _BAD_CONTAINERS + [[]]),
            (h["data"], i, _BAD_CONTAINERS + [[]]),
            (h["data"][i], j, _BAD_SCALARS + [-1, h["q"]]),
            (h, "modulus", _BAD_CONTAINERS),
            (doc, "H", _BAD_CONTAINERS),
            (doc, "provenance", _BAD_CONTAINERS),
        ]
        if h["modulus"]:
            slots.append((h["modulus"], rng.randrange(len(h["modulus"])), _BAD_SCALARS))
        if "h" in doc["provenance"]:
            slots.append((doc["provenance"], "h", _BAD_CONTAINERS + [[], [0], ["x"]]))
        owner, key, pool = rng.choice(slots)
        op = rng.choice(("replace", "replace", "float", "delete", "ragged"))
        if op == "float" and isinstance(owner[key], int):
            owner[key] = float(owner[key])
        elif op == "delete" and isinstance(owner, dict) and key not in _OPTIONAL:
            del owner[key]
        elif op == "ragged":
            key = i
            if rng.random() < 0.5:
                h["data"][i].append(0)
            else:
                h["data"][i].pop()
        else:
            op = "replace"
            owner[key] = rng.choice(pool)
        yield f"{op} {key!r}", doc


def test_malformed_code_files_exit_2_with_a_typed_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for label, doc in _code_file_mutants(seed=7, count=400):
        path.write_text(json.dumps(doc))
        rc = main(["verify", "--code", str(path), "--b1", "2", "--b2", "1",
                   "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 2, (label, doc)
        assert json.loads(captured.out)["error"]["type"], (label, doc)
        assert "Traceback" not in captured.out + captured.err, (label, doc)
