"""End-to-end command-line tests: every subcommand, all three output
formats, exit codes, and determinism. Each test drives main() directly."""

import argparse
import copy
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from erasurelab.algebra import (
    Matrix,
    Poly,
    columns_independent,
    field_make,
    mat_rank,
    poly_divides,
    poly_divmod,
    poly_mul,
    solve_for_columns,
    systematic_form,
    x_pow_n_minus_1,
    zrun,
)
from erasurelab.analysis import (
    rate_report,
    exhaustive_burst_random_search,
    exhaustive_code_search,
    mds_subblock_check,
    resolve_workers,
    sparsify_construction_one,
)
from erasurelab.channel import (
    ChannelParams,
    ErasurePattern,
    can_recover,
    check_wraparound,
    decode_erasures,
    enumerate_admissible_windows,
    enumerate_b1b2_patterns,
    is_b1b2_code,
    is_window_admissible,
)
from erasurelab.cli import _build_parser, main
from erasurelab.codes import (
    LinearCode,
    construction_one,
    cyclic_from_h,
    generator_matrix,
    mds_code,
    min_distance,
)
from erasurelab.errors import (
    BadParameters,
    DimensionMismatch,
    DivisionByZero,
    LengthMismatch,
    TooLarge,
)
from erasurelab.streaming import (
    PeriodicSource,
    StreamingParams,
    de_decode,
    de_encode,
    is_stream_admissible,
    periodic_pattern,
    simulate,
    verify_streaming_code,
)

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
    rc, doc = _run_json(
        capsys, ["verify", "--code", path, "--b1", "0", "--b2", "1", "--wraparound"]
    )
    assert rc == 2 and doc["error"]["type"] == "BadParameters"


def test_verify_needs_exactly_one_mode(capsys, tmp_path):
    path = str(tmp_path / "c1.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path])
    capsys.readouterr()
    for flags in (
        [],
        ["--w", "8", "--b1", "3", "--b2", "1"],
        # a flag of the other mode is an error, not ignored
        ["--a", "1", "--b", "3", "--e", "1", "--w", "8", "--wraparound"],
        ["--b1", "3", "--b2", "1", "--tau", "5"],
        ["--b1", "3", "--b2", "1", "--b", "3", "--e", "1"],
    ):
        rc, doc = _run_json(capsys, ["verify", "--code", path, *flags])
        assert rc == 2 and doc["error"]["type"] == "BadParameters", flags


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


def test_format_flag_goes_after_the_analyze_kind(capsys):
    """--format belongs to each leaf parser, so for analyze it follows the
    report kind; in front of the kind it is a usage error."""
    argv = ["--a", "2", "--b", "3", "--e", "1", "--w", "8"]
    assert main(["analyze", "rate", *argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["command"] == "analyze rate"
    assert main(["analyze", "--format", "json", "rate", *argv]) == 2


def test_closed_stdout_exits_2_without_a_traceback(monkeypatch, tmp_path):
    """A reader that goes away (`| head -1`) is an I/O error: exit 2, and
    stdout's descriptor is pointed at devnull so the flush at exit is quiet."""

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "wb") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        rc = main(["construct", "--scheme", "mds", "--n", "7", "--r", "5", "--format", "json"])
        os.write(target.fileno(), b"dropped")
    assert rc == 2
    assert (tmp_path / "stdout").read_bytes() == b""


def test_module_entry_point_prints_what_main_prints(capsys):
    """python -m erasurelab goes through cli.run, which exits with main's code."""
    argv = ["analyze", "rate", "--a", "2", "--b", "3", "--e", "1", "--w", "8"]
    rc = main(argv)
    out = capsys.readouterr().out
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "erasurelab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (rc, out)


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


@pytest.mark.parametrize("n", ["20000", "10000000"])
def test_search_far_over_the_cap_exits_2(capsys, n):
    """The candidate count here has too many digits to print as an int."""
    rc, doc = _run_json(capsys, ["search", "--n", n, "--b1", "1", "--b2", "1", "--q", "3"])
    assert rc == 2 and doc["error"]["type"] == "TooLarge"
    assert doc["error"]["message"].startswith("q^(r*k) = 3^")


def test_search_negative_field_size_exits_2(capsys):
    """A negative q is no field; its power is not a candidate count."""
    rc, doc = _run_json(capsys, ["search", "--n", "30", "--b1", "1", "--b2", "1", "--q", "-2"])
    assert rc == 2 and doc["error"]["type"] == "NotPrimePower"


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


def test_flags_the_chosen_mode_does_not_read_exit_2(capsys, tmp_path):
    """A flag of another scheme or source is an error, not ignored."""
    path = _write_mds72(capsys, tmp_path)
    stream = ["simulate", "--code", path, "--a", "2", "--b", "3", "--e", "2", "--w", "7",
              "--seed", "11"]
    ge = ["--slots", "40", "--p-gb", "0.1", "--p-bg", "0.5", "--p-loss-good", "0.05",
          "--p-loss-bad", "0.8"]
    for argv, message in (
        (["construct", "--scheme", "c1bin", "--n", "8", "--b1", "3", "--b2", "1", "--q", "5"],
         "--scheme c1bin does not read --q"),
        (["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--r", "4"],
         "--scheme c1 does not read --r"),
        (["construct", "--scheme", "mds", "--n", "7", "--r", "5", "--b1", "3", "--h", "1,1"],
         "--scheme mds does not read --b1, --h"),
        (["construct", "--scheme", "cyclic", "--n", "7", "--q", "2", "--h", "1,0,1,1,1",
          "--b2", "1"], "--scheme cyclic does not read --b2"),
        (stream + ["--source", "periodic", "--periods", "3", "--slots", "5"],
         "--source periodic does not read --slots"),
        (stream + ["--source", "ge", "--periods", "3"] + ge,
         "--source ge does not read --periods"),
    ):
        rc, doc = _run_json(capsys, argv)
        assert rc == 2, argv
        assert doc["error"] == {"type": "BadParameters", "message": message}


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


@pytest.mark.parametrize("fmt, b2, rc, lines", [
    ("table", 1, 0, ["result.patterns_checked  97", "result.verdict           true",
                     "meta.config.wraparound   false"]),
    ("table", 2, 1, ["result.patterns_checked  5", "result.verdict           false",
                     "result.witness.support   0 1 2 3 4"]),
    ("csv", 1, 0, ["result.verdict,true", "result.witness,", "result.patterns_checked,97"]),
    ("csv", 2, 1, ["result.verdict,false", "result.witness.support,0 1 2 3 4",
                   "result.witness.n,8", "result.patterns_checked,5"]),
])
def test_verify_verdict_golden_lines(capsys, tmp_path, fmt, b2, rc, lines):
    """Booleans print as true/false and a missing witness as an empty value."""
    path = str(tmp_path / "c831.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--out", path])
    capsys.readouterr()
    assert main(["verify", "--code", path, "--b1", "3", "--b2", str(b2), "--format", fmt]) == rc
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "erasurelab 0.1.0"


def test_unknown_flag_exits_2(capsys):
    rc = main(["construct", "--scheme", "c1", "--n", "8", "--b1", "3", "--b2", "1", "--bogus"])
    capsys.readouterr()
    assert rc == 2


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# every leaf parser's options in order: (option strings, dest, type, required,
# choices, default, action class)
_PARSER_HEAD = [
    ('-h, --help', 'help', None, False, None, '==SUPPRESS==', '_HelpAction'),
    ('--format', 'format', None, False, ('json', 'csv', 'table'), 'table', '_StoreAction'),
]

_LEAF_OPTIONS = {
    "construct": _PARSER_HEAD + [
        ('--scheme', 'scheme', None, True, ('c1', 'c1bin', 'mds', 'cyclic'), None, '_StoreAction'),
        ('--n', 'n', int, False, None, None, '_StoreAction'),
        ('--b1', 'b1', int, False, None, None, '_StoreAction'),
        ('--b2', 'b2', int, False, None, None, '_StoreAction'),
        ('--r', 'r', int, False, None, None, '_StoreAction'),
        ('--q', 'q', int, False, None, None, '_StoreAction'),
        ('--h', 'h', None, False, None, None, '_StoreAction'),
        ('--out', 'out', None, False, None, None, '_StoreAction'),
    ],
    "verify": _PARSER_HEAD + [
        ('--code', 'code', None, True, None, None, '_StoreAction'),
        ('--a', 'a', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
        ('--e', 'e', int, False, None, None, '_StoreAction'),
        ('--w', 'w', int, False, None, None, '_StoreAction'),
        ('--tau', 'tau', int, False, None, None, '_StoreAction'),
        ('--b1', 'b1', int, False, None, None, '_StoreAction'),
        ('--b2', 'b2', int, False, None, None, '_StoreAction'),
        ('--wraparound', 'wraparound', None, False, None, False, '_StoreTrueAction'),
    ],
    "search": _PARSER_HEAD + [
        ('--n', 'n', int, False, None, None, '_StoreAction'),
        ('--q', 'q', int, False, None, None, '_StoreAction'),
        ('--b1', 'b1', int, False, None, None, '_StoreAction'),
        ('--b2', 'b2', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
        ('--e', 'e', int, False, None, None, '_StoreAction'),
        ('--workers', 'workers', int, False, None, None, '_StoreAction'),
        ('--out', 'out', None, False, None, None, '_StoreAction'),
    ],
    "simulate": _PARSER_HEAD + [
        ('--code', 'code', None, True, None, None, '_StoreAction'),
        ('--a', 'a', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
        ('--e', 'e', int, False, None, None, '_StoreAction'),
        ('--w', 'w', int, False, None, None, '_StoreAction'),
        ('--tau', 'tau', int, False, None, None, '_StoreAction'),
        ('--seed', 'seed', int, True, None, None, '_StoreAction'),
        ('--source', 'source', None, True, ('periodic', 'ge'), None, '_StoreAction'),
        ('--periods', 'periods', int, False, None, None, '_StoreAction'),
        ('--slots', 'slots', int, False, None, None, '_StoreAction'),
        ('--p-gb', 'p_gb', float, False, None, None, '_StoreAction'),
        ('--p-bg', 'p_bg', float, False, None, None, '_StoreAction'),
        ('--p-loss-good', 'p_loss_good', float, False, None, None, '_StoreAction'),
        ('--p-loss-bad', 'p_loss_bad', float, False, None, None, '_StoreAction'),
    ],
    "analyze rate": _PARSER_HEAD + [
        ('--a', 'a', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
        ('--e', 'e', int, False, None, None, '_StoreAction'),
        ('--w', 'w', int, False, None, None, '_StoreAction'),
    ],
    "analyze cyclic": _PARSER_HEAD + [
        ('--n', 'n', int, False, None, None, '_StoreAction'),
        ('--q', 'q', int, False, None, None, '_StoreAction'),
        ('--h', 'h', None, False, None, None, '_StoreAction'),
    ],
    "analyze sparsity": _PARSER_HEAD + [
        ('--n', 'n', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
    ],
    "analyze fieldbound": _PARSER_HEAD + [
        ('--n', 'n', int, False, None, None, '_StoreAction'),
        ('--b', 'b', int, False, None, None, '_StoreAction'),
        ('--e', 'e', int, False, None, None, '_StoreAction'),
    ],
}


def test_leaf_parsers_keep_their_options():
    top = _subparsers(_build_parser())
    leaves = {name: p for name, p in top.items() if name != "analyze"}
    leaves.update({f"analyze {name}": p for name, p in _subparsers(top["analyze"]).items()})
    assert set(leaves) == set(_LEAF_OPTIONS)
    for name, parser in leaves.items():
        options = [
            (", ".join(a.option_strings), a.dest, a.type, a.required, a.choices, a.default,
             type(a).__name__)
            for a in parser._actions
        ]
        assert options == _LEAF_OPTIONS[name], name


def test_readme_command_line_examples_exit_0(capsys, tmp_path, monkeypatch):
    """Every erasurelab line of the README's command-line block runs, in
    order and in one directory, and exits 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ERASURELAB_THREADS", raising=False)
    commands = set()
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "erasurelab", line
        rc = main(argv[1:])
        capsys.readouterr()
        assert rc == 0, line
        commands.add(argv[1])
    assert commands == {"construct", "verify", "analyze", "search", "simulate"}


def test_readme_library_example_runs():
    """The README's Python block runs as written, its asserts included."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})


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


@pytest.mark.parametrize("argv", [
    ["verify", "--b1", "1", "--b2", "1"],
    ["simulate", "--a", "2", "--b", "3", "--e", "2", "--w", "7",
     "--source", "periodic", "--periods", "3", "--seed", "11"],
])
def test_code_file_nested_too_deep_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc = main(argv + ["--code", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.out)["error"]["type"] == "BadParameters"
    assert "Traceback" not in captured.out + captured.err


def _small_int_argvs(code_path):
    """Every integer flag of construct, verify, analyze and search set to
    each of -1, 0, 1 and 2, in every combination within one command."""
    commands = [
        (["construct", "--scheme", "c1"], ("--n", "--b1", "--b2", "--q")),
        (["construct", "--scheme", "c1bin"], ("--n", "--b1", "--b2")),
        (["construct", "--scheme", "mds"], ("--n", "--r", "--q")),
        (["construct", "--scheme", "cyclic", "--h", "1,1"], ("--n", "--q")),
        (["verify", "--code", code_path], ("--a", "--b", "--e", "--w", "--tau")),
        (["verify", "--code", code_path], ("--b1", "--b2")),
        (["verify", "--code", code_path, "--wraparound"], ("--b1", "--b2")),
        (["analyze", "rate"], ("--a", "--b", "--e", "--w")),
        (["analyze", "cyclic", "--h", "1,1"], ("--n", "--q")),
        (["analyze", "sparsity"], ("--n", "--b")),
        (["analyze", "fieldbound"], ("--n", "--b", "--e")),
        (["search"], ("--n", "--q", "--b1", "--b2", "--workers")),
        (["search"], ("--n", "--q", "--b", "--e", "--workers")),
    ]
    for base, flags in commands:
        for values in itertools.product(("-1", "0", "1", "2"), repeat=len(flags)):
            yield base + [x for pair in zip(flags, values) for x in pair]


def test_small_integer_flags_never_escape_main(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ERASURELAB_THREADS", raising=False)  # searches stay serial
    path = str(tmp_path / "c1841.json")
    main(["construct", "--scheme", "c1", "--n", "8", "--b1", "4", "--b2", "1", "--out", path])
    capsys.readouterr()
    count = 0
    for argv in _small_int_argvs(path):
        rc = main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert json.loads(out)["error"]["type"], argv
        count += 1
    assert count == 3856


# ---------------------------------------------------------------------------
# guards no other test reaches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("w", [21, 22])
@pytest.mark.parametrize("r", [4, 5])
def test_window_cap_comes_before_the_first_path(capsys, tmp_path, w, r):
    """Past the cap, verify raises TooLarge before it pushes the first path,
    (0), (0, 1), ... (0, ..., 4): dependent with 4 parity rows, not with 5."""
    message = f"2^{w} window patterns exceed the enumeration cap"
    params = StreamingParams(ChannelParams(2, 3, 2, w), w - 1)
    with pytest.raises(TooLarge, match=rf"^{re.escape(message)}$"):
        verify_streaming_code(mds_code(w, r), params)
    path = str(tmp_path / "mds.json")
    main(["construct", "--scheme", "mds", "--n", str(w), "--r", str(r), "--out", path])
    capsys.readouterr()
    flags = ["--a", "2", "--b", "3", "--e", "2", "--w", str(w), "--tau", str(w - 1)]
    rc, doc = _run_json(capsys, ["verify", "--code", path] + flags)
    assert rc == 2 and doc["error"] == {"type": "TooLarge", "message": message}


def _edited_cyclic_file():
    """A cyclic code file whose stored H no longer matches its provenance."""
    doc = cyclic_from_h(7, 2, (1, 0, 1, 1, 1)).to_json()
    doc["H"]["data"][0][0] ^= 1
    return doc


@pytest.mark.parametrize("call, error", [
    ("solve_for_columns(construction_one(8, 3, 1).h, (0, 0), [0, 0, 0, 0])", DimensionMismatch),
    ("solve_for_columns(construction_one(8, 3, 1).h, (0, 1), [0, 0])", DimensionMismatch),
    ("systematic_form(construction_one(8, 3, 1).h, side='middle')", BadParameters),
    ("x_pow_n_minus_1(field_make(3), 0)", BadParameters),
    ("poly_divmod(Poly(field_make(3), (1, 1)), Poly(field_make(3), ()))", DivisionByZero),
    ("construction_one(8, 3, 1).h @ construction_one(8, 3, 1).h", DimensionMismatch),
    ("can_recover(construction_one(8, 3, 1), ErasurePattern(7, (0,)))", LengthMismatch),
    ("enumerate_admissible_windows(ChannelParams(0, 1, 1, 21))", TooLarge),
    ("enumerate_b1b2_patterns(21, 1, 1)", TooLarge),
    ("check_wraparound(construction_one(21, 3, 1), 3, 1)", TooLarge),
    ("mds_subblock_check(mds_code(41, 11), 1, 10)", TooLarge),
    ("min_distance(mds_code(26, 2))", TooLarge),
    ("LinearCode.from_json(_edited_cyclic_file())", BadParameters),
    (["construct", "--scheme", "cyclic", "--n", "7", "--q", "2", "--h", "1,x"], "BadParameters"),
    (["verify", "--code", "CODE", "--b1", "2", "--b2", "1"], "BadParameters"),
    ("cyclic_from_h('7', 2, (1, 0, 1, 1, 1))", BadParameters),
    ("is_stream_admissible((), None, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_stream_admissible((), '9', ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_stream_admissible((), 3.0, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_stream_admissible((), 9.0, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_stream_admissible((), True, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_stream_admissible((), -1, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("resolve_workers(0)", BadParameters),
    ("resolve_workers(-3)", BadParameters),
    ("exhaustive_code_search(5, 2, 1, 3, workers=0)", BadParameters),
    ("exhaustive_burst_random_search(6, 2, 1, 3, workers=-7)", BadParameters),
    (["search", "--n", "5", "--b1", "2", "--b2", "1", "--q", "3", "--workers", "0"],
     "BadParameters"),
    (["search", "--n", "5", "--b1", "2", "--b2", "1", "--q", "3", "--workers", "-3"],
     "BadParameters"),
    ("decode_erasures(construction_one(8, 3, 1), None)", BadParameters),
    ("is_stream_admissible(None, 5, ChannelParams(1, 2, 2, 7))", BadParameters),
    ("verify_streaming_code(construction_one(8, 3, 1), None)", BadParameters),
    ("de_encode(None, [(1, 2, 0, 1)])", BadParameters),
    ("de_decode(None, construction_one(8, 3, 1), StreamingParams(ChannelParams(1, 3, 1, 8), 7))",
     BadParameters),
    ("de_decode(de_encode(construction_one(8, 3, 1), [(1, 2, 0, 1)]), construction_one(8, 3, 1), "
     "None)", BadParameters),
    ("periodic_pattern(None, 2)", BadParameters),
    ("is_stream_admissible([1], 5, None)", BadParameters),
    ("simulate(construction_one(8, 3, 1), None, PeriodicSource(2), 1)", BadParameters),
    ("can_recover(construction_one(8, 3, 1), None)", BadParameters),
    ("can_recover(None, ErasurePattern(8, (0,)))", BadParameters),
    ("is_window_admissible(None, ChannelParams(1, 2, 1, 5))", BadParameters),
    ("is_window_admissible(ErasurePattern(5, (0,)), None)", BadParameters),
    ("enumerate_admissible_windows(None)", BadParameters),
    ("is_b1b2_code(None, 3, 1)", BadParameters),
    ("check_wraparound(None, 1, 1)", BadParameters),
    ("verify_streaming_code(None, StreamingParams(ChannelParams(1, 3, 1, 8), 7))", BadParameters),
    ("de_decode(de_encode(construction_one(8, 3, 1), [(1, 2, 0, 1)]), None, "
     "StreamingParams(ChannelParams(1, 3, 1, 8), 7))", BadParameters),
    ("simulate(None, StreamingParams(ChannelParams(1, 3, 1, 8), 7), PeriodicSource(2), 1)",
     BadParameters),
    ("Matrix(field_make(2), 5)", BadParameters),
    ("Matrix(field_make(2), [[1], 5])", BadParameters),
    ("Matrix(None, [[1]])", BadParameters),
    ("Poly(field_make(2), 5)", BadParameters),
    ("Poly('x', [1])", BadParameters),
    ("cyclic_from_h(7, 2, None)", BadParameters),
    ("LinearCode(None)", BadParameters),
    ("rate_report(None)", BadParameters),
    ("x_pow_n_minus_1('x', 3)", BadParameters),
    ("poly_mul(None, Poly(field_make(3), (1, 1)))", BadParameters),
    ("poly_mul(Poly(field_make(3), (1, 1)), 5)", BadParameters),
    ("poly_divmod(Poly(field_make(3), (1, 1)), None)", BadParameters),
    ("poly_divmod(7, Poly(field_make(3), (1, 1)))", BadParameters),
    ("poly_divides(None, Poly(field_make(3), (1, 1)))", BadParameters),
    ("poly_divides(Poly(field_make(3), (1, 1)), 'x')", BadParameters),
    ("Matrix(field_make(5), [[1, 2], [3, 4]]) @ 3", BadParameters),
    ("zrun('x')", BadParameters),
    ("mat_rank('x')", BadParameters),
    ("systematic_form('x')", BadParameters),
    ("min_distance('x')", BadParameters),
    ("sparsify_construction_one('x')", BadParameters),
    ("decode_erasures('x', [None])", BadParameters),
    ("generator_matrix('x')", BadParameters),
    ("mds_subblock_check('x', 1, 1)", BadParameters),
    ("columns_independent('x', [0])", BadParameters),
    ("solve_for_columns('x', [0], [1])", BadParameters),
])
def test_guards_raise_typed_errors(capsys, tmp_path, call, error):
    """Library calls raise the typed error; CLI runs (argv lists, with CODE a
    file holding only "{") exit 2 with that error as JSON and no traceback."""
    if isinstance(call, str):
        with pytest.raises(error):
            eval(call)
        return
    path = tmp_path / "code.json"
    path.write_text("{")
    rc = main([str(path) if a == "CODE" else a for a in call] + ["--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.out)["error"]["type"] == error
    assert "Traceback" not in captured.out + captured.err
