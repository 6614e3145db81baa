"""CLI driver surface (python -m ppagerank_ray) — the reference's
ppagerank_main analogue, including -script mode."""

import json
import subprocess
import sys


def _run(cwd, args, stdin=None):
    out = subprocess.run(
        [sys.executable, "-m", "ppagerank_ray", *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_pagerank(tmp_path, repo_root):
    s = _run(
        repo_root,
        [
            "--sf", "/root/testdata/sf0.001",
            "--out", str(tmp_path / "scores"),
            "--tol", "1e-7",
            "--num-cpus", "4",
        ]
    )
    assert s["converged"] and s["n_vertices"] == 505
    import duckdb

    n, total = duckdb.sql(
        f"select count(*), sum(score) from '{tmp_path}/scores/part_*/data.parquet'"
    ).fetchone()
    assert n == 505 and abs(total - 1.0) < 1e-9


def test_cli_script_mode_tolerates_unknown_alg(tmp_path, repo_root):
    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--script",
         "--out", str(tmp_path / "runs"), "--num-cpus", "4"],
        stdin='{"alg":"power","alpha":0.95}\n{"alg":"nope"}\n',
    )
    assert s["runs"][0]["iterations"] > 0
    assert s["runs"][1] == {"run": 1, "error": "unknown alg"}


def test_cli_script_reference_syntax_verbatim(tmp_path, repo_root,
                                              reference_test_script):
    """The reference's own test_script (option-line syntax: `-alpha 0.95` /
    `-alpha 0.95 -alg arnoldi`, test_script:1-2 per SURVEY.md §0 and §5),
    served by the `reference_test_script` fixture from the vendored
    tests/data/reference_test_script, must run unmodified: two runs sharing
    one loaded+normalized graph."""
    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--script",
         "--out", str(tmp_path / "runs"), "--num-cpus", "4"],
        stdin=reference_test_script,
    )
    runs = s["runs"]
    assert [r["alg"] for r in runs] == ["power", "arnoldi"]
    assert all(r["iterations"] > 0 for r in runs)
    assert all(r["residual_l1"] < 1e-7 for r in runs)


def test_parse_spec_line_negative_values():
    """Negative option values ('-alpha -0.5') are values, not flags
    (ADVICE round 2)."""
    from ppagerank_ray.__main__ import parse_spec_line

    spec = parse_spec_line("-alpha -0.5 -tol -1e-8 -alg power -trans")
    assert spec["alpha"] == "-0.5"
    assert spec["tol"] == "-1e-8"
    assert spec["alg"] == "power"
    assert spec["trans"] is True


def test_cli_graph_algos(tmp_path, repo_root):
    """kcore / bfs / scc partitioned writes + hosts table (round-3 algos)."""
    import duckdb

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "kcore",
         "--out", str(tmp_path / "kc"), "--num-cpus", "4"]
    )
    assert s["rounds"] >= 1
    n, mx = duckdb.sql(
        f"select count(*), max(core) from '{tmp_path}/kc/part_*/data.parquet'"
    ).fetchone()
    assert n == 505 and mx >= 1

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "bfs", "--seed", "0",
         "--out", str(tmp_path / "bf"), "--num-cpus", "4"]
    )
    row = duckdb.sql(
        f"select count(*), min(dist), max(dist) from '{tmp_path}/bf/part_*/data.parquet'"
    ).fetchone()
    assert row[0] == 505 and row[1] == -1  # unreachable mapped to -1
    seed_d = duckdb.sql(
        f"select dist from '{tmp_path}/bf/part_*/data.parquet' where id = 0"
    ).fetchone()[0]
    assert seed_d == 0

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "scc",
         "--out", str(tmp_path / "sc"), "--num-cpus", "4"]
    )
    assert s["phases"] >= 1
    n = duckdb.sql(
        f"select count(*) from '{tmp_path}/sc/part_*/data.parquet'"
    ).fetchone()[0]
    assert n == 505

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "hosts",
         "--out", str(tmp_path / "ho"), "--num-cpus", "4"]
    )
    assert s["n_host_edges"] >= 1
    hosts = duckdb.sql(
        f"select src_host from '{tmp_path}/ho/host_edges.parquet'"
    ).fetchall()
    assert ("pages.example",) in hosts


def test_cli_trans_matches_untransposed(tmp_path, repo_root):
    """A3 -trans (ppagerank.cc:177-231): running --trans on the TRANSPOSED
    weighted matrix file (storage M = A^T, column-normalized, y = M*x) must
    reproduce the plain run on the original file to fp round-off."""
    import duckdb
    import numpy as np

    from ppagerank_ray.sources.bsmat import write_bsmat

    rng = np.random.default_rng(7)
    V, E = 60, 400
    src = rng.integers(0, V, E)
    dst = rng.integers(0, V, E)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(len(src)) + 0.5
    write_bsmat(str(tmp_path / "a.bsmat"), src, dst, w, V, V)
    write_bsmat(str(tmp_path / "at.bsmat"), dst, src, w, V, V)

    _run(repo_root,
         ["--matrix", str(tmp_path / "a.bsmat"), "--tol", "1e-10",
          "--out", str(tmp_path / "oa"), "--num-cpus", "4"])
    _run(repo_root,
         ["--matrix", str(tmp_path / "at.bsmat"), "--trans", "--tol", "1e-10",
          "--out", str(tmp_path / "ot"), "--num-cpus", "4"])

    a = duckdb.sql(
        f"select score from '{tmp_path}/oa/part_*/data.parquet' order by id"
    ).fetchnumpy()["score"]
    t = duckdb.sql(
        f"select score from '{tmp_path}/ot/part_*/data.parquet' order by id"
    ).fetchnumpy()["score"]
    assert len(a) == V and np.allclose(a, t, atol=1e-9)


def test_cli_trans_requires_matrix(tmp_path, repo_root):
    """--trans declares the FILE's storage orientation; a pages build has
    none, so the combination is rejected loudly."""
    out = subprocess.run(
        [sys.executable, "-m", "ppagerank_ray", "--sf",
         "/root/testdata/sf0.001", "--trans", "--out", str(tmp_path / "x")],
        capture_output=True, text=True, cwd=repo_root, timeout=60,
    )
    assert out.returncode == 2
    assert "requires --matrix" in out.stderr


def test_cli_walks(tmp_path, repo_root):
    """--algo walks: uniform corpus parquet at p=q=1; node2vec when
    biased. Row counts and determinism asserted against the library."""
    import duckdb

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "walks",
         "--walk-length", "4", "--out", str(tmp_path / "w"),
         "--num-cpus", "4"]
    )
    assert s["n_walks"] == 505
    n, starts = duckdb.sql(
        f"select count(*), count(*) filter (step = 0) "
        f"from '{tmp_path}/w/*.parquet'"
    ).fetchone()
    assert starts == 505 and n == s["n_corpus_rows"] and n >= 505

    s2 = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "walks",
         "--walk-length", "4", "--p", "0.5", "--q", "2.0",
         "--out", str(tmp_path / "w2"), "--num-cpus", "4"]
    )
    assert s2["n_corpus_rows"] >= 505  # node2vec path produced a corpus


def test_cli_pprsweep(tmp_path, repo_root):
    """Local-PPR push + ACL sweep (round 5): sweep table written, best
    conductance consistent with its own integer columns."""
    import duckdb

    s = _run(
        repo_root,
        ["--sf", "/root/testdata/sf0.001", "--algo", "pprsweep",
         "--out", str(tmp_path / "pw"), "--num-cpus", "4"]
    )
    assert s["support"] > 0 and 0.0 < s["best_conductance"] <= 1.0
    n, c = duckdb.sql(
        f"select count(*), min(conductance) from '{tmp_path}/pw/ppr_sweep.parquet'"
    ).fetchone()
    assert n == s["support"] and abs(c - s["best_conductance"]) < 1e-12
