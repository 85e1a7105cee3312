import json
import os
import subprocess
import sys

import numpy as np
import pytest

import schurpow
from schurpow import fileio
from schurpow.cli import cli_main
from schurpow.codes import LinearCode
from schurpow.families import parity, random_code, reed_solomon, repetition, full_space
from schurpow.fields import GF
from schurpow.lattices import CodeChain


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_serialization():
    rng = np.random.default_rng(211)
    for _ in range(25):
        q = int(rng.choice([2, 3, 4, 5]))
        F = GF(2, 2) if q == 4 else GF(q)
        n = int(rng.integers(1, 9))
        C = random_code(F, n, int(rng.integers(0, n + 1)), rng)
        assert fileio.code_from_text(fileio.code_to_text(C)) == C


def test_parse_error_location():
    text = "2^2/7\n3 1\n1 x 0\n"
    with pytest.raises(fileio.ParseError) as err:
        fileio.code_from_text(text, "bad.code")
    assert "bad.code:3:3" in str(err.value)


def test_parse_out_of_range_entry():
    text = "2^1/2\n2 1\n1 5\n"
    with pytest.raises(fileio.ParseError):
        fileio.code_from_text(text)


def test_seq_rs(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "rs:q=5,n=5,k=3", "--tmax", "4")
    assert code == 0
    assert out.strip() == "dim,1,3,5,5,5"


def test_seq_json_dist(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--family", "rs:q=5,n=5,k=3", "--tmax", "2", "--kind", "dist", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["dist"] == [5, 3, 1]


def test_power_zero_gives_unit(capsys, tmp_path):
    path = tmp_path / "c.code"
    fileio.save_code(str(path), reed_solomon(5, 5, 3))
    code, out, _ = run_cli(capsys, "power", "--in", str(path), "--t", "0")
    assert code == 0
    assert fileio.code_from_text(out) == repetition(5, 5)


def test_product_cli(capsys, tmp_path):
    p1 = tmp_path / "a.code"
    p2 = tmp_path / "b.code"
    fileio.save_code(str(p1), parity(2, 3))
    fileio.save_code(str(p2), parity(2, 3))
    code, out, _ = run_cli(capsys, "product", "--in", str(p1), "--in2", str(p2))
    assert code == 0
    assert fileio.code_from_text(out) == full_space(2, 3)


def test_mu_tri_cli(capsys):
    code, out, _ = run_cli(capsys, "mu", "--q", "2", "--k", "2", "--variant", "tri")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_mu_infinite_cli(capsys):
    code, out, _ = run_cli(capsys, "mu", "--q", "2", "--k", "3", "--variant", "tri")
    assert code == 0
    assert json.loads(out)["value"] == "infinity"


def test_waring_cli(capsys):
    code, out, _ = run_cli(capsys, "waring", "--t", "3", "--q", "7")
    assert json.loads(out)["value"] == 3


def test_necklace_cli(capsys):
    code, out, _ = run_cli(capsys, "necklace", "--r", "10", "--tuple", "9,8,7,6,4,3,1")
    payload = json.loads(out)
    assert payload["shift"] == 4
    assert payload["representative"] == [8, 7, 5, 3, 2, 1, 0]


def test_orbits_cli(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--q", "2", "--r", "3", "--t", "3")
    payload = json.loads(out)
    reps = {tuple(o["representative"]) for o in payload["orbits"]}
    assert reps == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)}
    assert payload["max_degree"] == 7


def test_universal_check_cli(capsys):
    code, out, _ = run_cli(capsys, "universal-check", "--q", "2", "--r", "3", "--t", "3")
    assert code == 0
    assert json.loads(out)["report"]["bijective"]


def test_bounds_exit_codes(capsys, tmp_path):
    # a holds=false report exits 1: Roos with a non-full-support A
    pa = tmp_path / "a.code"
    fileio.save_code(str(pa), LinearCode(GF(2), 4, [[1, 1, 0, 0]]))
    pb = tmp_path / "b.code"
    fileio.save_code(str(pb), repetition(2, 4))
    code, out, _ = run_cli(
        capsys, "bounds:roos", "--inA", str(pa), "--inB", str(pb), "--inC", str(pb)
    )
    assert code == 1
    assert json.loads(out)["report"]["holds"] is False


def test_bounds_singleton_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds:singleton",
        "--family", "parity:q=2,n=3",
        "--family2", "parity:q=2,n=3",
    )
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["holds"] and payload["bound"] == 1


def test_kashyap_cli(capsys):
    code, out, _ = run_cli(
        capsys, "kashyap", "--family", "parity:q=2,n=3", "--family2", "parity:q=2,n=3"
    )
    assert code == 0
    payload = json.loads(out)
    F = GF(2)
    prod = F.mul(np.array(payload["c1"]), np.array(payload["c2"]))
    assert int(np.count_nonzero(prod)) == 1


def test_symalg_cli(capsys):
    # triple multiplication in GF(4) over GF(2) has no symmetric algorithm
    code, out, _ = run_cli(capsys, "symalg", "--q", "2", "--k", "2", "--t", "3", "--form", "mult")
    assert code == 0
    payload = json.loads(out)
    assert payload["frobenius_symmetric"] is False
    assert payload["exists"] is False
    assert payload["witness"] is not None
    # while the trace form is a sum of three cubes
    code, out, _ = run_cli(capsys, "symalg", "--q", "2", "--k", "2", "--t", "3", "--form", "trace")
    payload = json.loads(out)
    assert payload["exists"] is True
    assert len(payload["algorithm"]["terms"]) == 3


def test_lattice_check_cli(capsys, tmp_path):
    chain = CodeChain([parity(2, 3), parity(2, 3), full_space(2, 3)])
    path = tmp_path / "chain.txt"
    fileio.save_chain(str(path), chain)
    code, out, _ = run_cli(capsys, "lattice-check", "--chain", str(path))
    assert code == 1  # criterion fails for this chain
    good = CodeChain([repetition(2, 4), parity(2, 4), full_space(2, 4)])
    path2 = tmp_path / "chain2.txt"
    fileio.save_chain(str(path2), good)
    code, out, _ = run_cli(capsys, "lattice-check", "--chain", str(path2))
    assert code == 0
    code, out, _ = run_cli(capsys, "lattice-invariants", "--chain", str(path2))
    payload = json.loads(out)
    assert payload["volume"] == 16 and payload["min_norm"] == 4


def test_chain_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        fileio.code_to_text(full_space(2, 3)) + "\n" + fileio.code_to_text(parity(2, 3))
    )
    with pytest.raises(fileio.ParseError):
        fileio.load_chain(str(bad))


def test_fundamental_cli(capsys):
    code, out, _ = run_cli(capsys, "fundamental", "--q", "2", "--n", "4", "--d", "2", "--t", "2")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_concat_verify_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "concat-verify", "--q", "2", "--r", "2", "--t", "2",
        "--n", "3", "--k", "2", "--seed", "11",
    )
    assert code == 0
    assert json.loads(out)["report"]["holds"]


def test_concat_verify_requires_seed(capsys):
    code, _, err = run_cli(capsys, "concat-verify", "--q", "2", "--r", "2", "--t", "2", "--n", "3", "--k", "2")
    assert code == 2
    assert "seed" in err


def test_deterministic_given_seed(capsys):
    argv = ["concat-verify", "--q", "2", "--r", "2", "--t", "2", "--n", "3", "--k", "2", "--seed", "99"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    argv2 = argv[:-1] + ["100"]
    _, out3, _ = run_cli(capsys, *argv2)
    # a different seed may give a different outer code; output stays valid JSON
    assert json.loads(out3)["schema"] == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["seq", "--family", "rs:q=5,n=5,k=3"])  # missing --tmax
    assert exc.value.code == 2
    capsys.readouterr()


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("2^2/7\n3 1\n1 x 0\n")
    code, _, err = run_cli(capsys, "regularity", "--in", str(bad))
    assert code == 2
    assert "bad.code:3" in err


def test_trace_descent_cli(capsys, tmp_path):
    C = random_code(GF(2, 2), 4, 2, 31)
    path = tmp_path / "c4.code"
    fileio.save_code(str(path), C)
    code, out, _ = run_cli(capsys, "trace-descent", "--in", str(path), "--subfield-q", "2")
    assert code == 0
    D = fileio.code_from_text(out)
    assert D.field == GF(2) and D.n == 4


def test_missing_input_file_exit_2(capsys, tmp_path):
    missing = tmp_path / "nonexistent.code"
    code, _, err = run_cli(capsys, "seq", "--in", str(missing), "--t", "2")
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "nonexistent.code" in err


def test_huge_size_line_exit_2_without_allocating(capsys, tmp_path):
    # n = 2*10^9 with a one-entry row: the row is rejected before any array
    # of the declared size exists (it would need 14.9 GiB)
    path = tmp_path / "huge.code"
    path.write_text("2^1/3\n2000000000 1\n1\n")
    code, _, err = run_cli(capsys, "weights", "--in", str(path))
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "expected 2000000000 entries, got 1" in err
    # k = 2*10^9 declared, one row present
    path.write_text("2^1/3\n1 2000000000\n1\n")
    code, _, err = run_cli(capsys, "weights", "--in", str(path))
    assert code == 2
    assert err.count("\n") == 1 and "expected 2000000000 generator rows" in err


def test_partition_missing_blocks_exit_2(capsys):
    code, _, err = run_cli(capsys, "seq", "--family", "partition:q=2,n=3", "--t", "2")
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "'blocks'" in err


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(schurpow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "schurpow.cli", "waring", "--t", "3", "--q", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 3
