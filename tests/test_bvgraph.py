"""BVGraph reader: hand-computed bit fixtures (format ground truth per
/root/reference/bvgraph_matrix.h:267-274 and .cc:155-371), encoder/decoder
roundtrips across parameter settings, and PageRank on a decoded graph vs
the numpy oracle via the CLI script mode (the reference test_script
semantics end-to-end)."""

import numpy as np
import pytest

from ppagerank_ray.sources.bvgraph import (
    BitReader,
    BitWriter,
    decode_bvgraph,
    encode_bvgraph,
    int2nat,
    nat2int,
    read_properties,
)


def _bits_to_bytes(s: str) -> bytes:
    s = s.replace(" ", "")
    s = s + "0" * (-len(s) % 8)
    return bytes(int(s[i : i + 8], 2) for i in range(0, len(s), 8))


def _write_graph(tmp_path, name, bit_string, nodes, arcs, window=7, minint=3, zk=3):
    base = str(tmp_path / name)
    with open(base + ".graph", "wb") as f:
        f.write(_bits_to_bytes(bit_string))
    with open(base + ".properties", "w") as f:
        f.write(
            f"nodes={nodes}\narcs={arcs}\nwindowsize={window}\n"
            f"maxrefcount=3\nminintervallength={minint}\nzetak={zk}\n"
        )
    return base


def test_codes_roundtrip_primitives():
    w = BitWriter()
    vals = [0, 1, 2, 3, 7, 8, 100, 12345]
    for v in vals:
        w.write_gamma(v)
    for v in vals:
        w.write_zeta(v, 3)
    for v in vals:
        w.write_zeta(v, 2)
    for v in vals:
        w.write_unary(v % 20)
    r = BitReader(w.getvalue())
    assert [r.read_gamma() for _ in vals] == vals
    assert [r.read_zeta(3) for _ in vals] == vals
    assert [r.read_zeta(2) for _ in vals] == vals
    assert [r.read_unary() for _ in vals] == [v % 20 for v in vals]
    for i in range(-10, 11):
        assert nat2int(int2nat(i)) == i


def test_decode_hand_computed_residual_and_interval_case(tmp_path):
    """Graph: 0→{1,2}; 1→{}; 2→{0,1,2}. Hand-encoded with defaults
    (window 7, minint 3, ζ_3): node 0 all-residual, node 2 one interval.

    node0: outdeg γ(2)=011, ref unary(0)=1, ival-count γ(0)=1,
           residual0 ζ3(int2nat(1-0)=2): x=3,h=0 → 1|01|1,
           residual1 ζ3(2-1-1=0): x=1,h=0 → 1|00
    node1: outdeg γ(0)=1
    node2: outdeg γ(3)=00100, ref=1, ival-count γ(1)=010,
           left γ(int2nat(0-2)=3)=00100, len γ(3-3=0)=1
    """
    bits = "011 1 1 1011 100" + "1" + "00100 1 010 00100 1"
    base = _write_graph(tmp_path, "hand1", bits, nodes=3, arcs=5)
    chunks = list(decode_bvgraph(base))
    src = np.concatenate([c[0] for c in chunks])
    dst = np.concatenate([c[1] for c in chunks])
    assert list(zip(src.tolist(), dst.tolist())) == [
        (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]


def test_decode_hand_computed_copy_block_case(tmp_path):
    """Copy blocks: 0→{1,3,5}; 1→{3,5} copies from node 0 with blocks
    [0,1] (skip '1', copy tail {3,5} via the even-block-count tail rule).

    node0: γ(3)=00100, ref unary(0)=1, ival γ(0)=1,
           res ζ3(int2nat(1))=ζ3(2)=1 01 1, ζ3(3-1-1=1)=1 10 .. wait:
           ζ3(1): x=2,h=0,left=1, x<2? no → write 2>>1=1 in 2 bits=01,
           bit 0 → 1 01 0; ζ3(5-3-1=1) same → 1 01 0
    node1: γ(2)=011, ref unary(1)=01, block-count γ(2)=011,
           b0 γ(0)=1, b1 γ(1-1=0)=1  (no ival γ: extra==0)
    """
    bits = "00100 1 1 1011 1010 1010" + "011 01 011 1 1"
    base = _write_graph(tmp_path, "hand2", bits, nodes=2, arcs=5)
    chunks = list(decode_bvgraph(base))
    src = np.concatenate([c[0] for c in chunks])
    dst = np.concatenate([c[1] for c in chunks])
    assert list(zip(src.tolist(), dst.tolist())) == [
        (0, 1), (0, 3), (0, 5), (1, 3), (1, 5)]


def _random_successors(rng, n, density=0.1, run_bias=True):
    succ = []
    for x in range(n):
        if rng.random() < 0.15:
            succ.append(np.empty(0, np.int64))
            continue
        if run_bias and x > 0 and rng.random() < 0.4:
            # near-copy of the previous node's list (webgraph locality)
            base = succ[x - 1]
            keep = base[rng.random(len(base)) < 0.8] if len(base) else base
            extra = rng.choice(n, size=rng.integers(0, 4), replace=False)
            s = np.unique(np.concatenate([keep, extra]))
        else:
            m = rng.integers(1, max(2, int(n * density)))
            s = np.unique(rng.choice(n, size=m, replace=False))
            if rng.random() < 0.5 and len(s) and s[0] + 5 < n:
                s = np.unique(np.concatenate([s, np.arange(s[0], s[0] + 5)]))
        succ.append(s.astype(np.int64))
    return succ


@pytest.mark.parametrize(
    "window,minint,zk", [(7, 3, 3), (0, 2, 2), (3, 4, 1), (7, 2, 4), (7, 0, 3)]
)
def test_encode_decode_roundtrip(tmp_path, window, minint, zk):
    rng = np.random.default_rng(100 * window + 10 * minint + zk)
    succ = _random_successors(rng, 60)
    base = str(tmp_path / f"rt_{window}_{minint}_{zk}")
    encode_bvgraph(
        succ, base, window_size=window, min_interval_length=minint, zeta_k=zk
    )
    props = read_properties(base)
    assert props["nodes"] == 60
    got = {x: np.empty(0, np.int64) for x in range(60)}
    for src, dst in decode_bvgraph(base):
        for x in np.unique(src):
            got[int(x)] = np.concatenate([got[int(x)], dst[src == x]])
    for x in range(60):
        np.testing.assert_array_equal(got[x], succ[x], err_msg=f"node {x}")


def test_bvgraph_cli_reference_test_script(tmp_path, repo_root,
                                           reference_test_script):
    """The reference's own workflow: `ppagerank -m <graph> -script <
    test_script` (α=0.95 power + arnoldi on ONE loaded graph). PageRank on
    the decoded matrix must match the numpy oracle."""
    import json
    import subprocess
    import sys

    from ppagerank_ray.algos.pagerank import numpy_power_oracle

    rng = np.random.default_rng(7)
    succ = _random_successors(rng, 80)
    base = str(tmp_path / "cli_graph")
    encode_bvgraph(succ, base)
    out = subprocess.run(
        [sys.executable, "-m", "ppagerank_ray",
         "--matrix", base, "--mhint", "bvgraph",
         "--script", "--out", str(tmp_path / "runs"), "--num-cpus", "4"],
        input=reference_test_script, capture_output=True, text=True,
        cwd=repo_root, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    s = json.loads(out.stdout.strip().splitlines()[-1])
    assert [r["alg"] for r in s["runs"]] == ["power", "arnoldi"]
    assert all(r["residual_l1"] < 1e-7 for r in s["runs"])
    # the power run's scores (run_000 parquet) vs the numpy oracle at α=0.95
    import duckdb

    t = duckdb.sql(
        f"select id, score from '{tmp_path}/runs/run_000/*.parquet' order by id"
    ).fetchnumpy()
    src = np.concatenate([np.full(len(s_), x) for x, s_ in enumerate(succ)]).astype(np.int64)
    dst = np.concatenate([s_ for s_ in succ]).astype(np.int64)
    x_ref, _ = numpy_power_oracle(src, dst, 80, alpha=0.95, tol=1e-7)
    np.testing.assert_allclose(t["score"], x_ref, atol=1e-6)


def test_write_bvgraph_roundtrips_built_graph(tmp_path, sf_tiny):
    """Graph build → BVGraph writer → loader: the engine round-trips the
    reference's input format end-to-end (edges byte-for-byte equal)."""
    from ppagerank_ray.graph.build import build_graph
    from ppagerank_ray.sources.bvgraph import write_bvgraph_from_edges
    from ppagerank_ray.sources.bsmat import load_matrix
    from ppagerank_ray.sources.pages import synth_pages

    gt = build_graph(synth_pages(sf_tiny))
    base = str(tmp_path / "roundtrip")
    info = write_bvgraph_from_edges(gt.edges, gt.n_vertices, base)
    assert info == {"nodes": gt.n_vertices, "arcs": gt.n_edges}
    ds, m, n, nnz = load_matrix(base, hint="bvgraph")
    assert (m, n, nnz) == (gt.n_vertices, gt.n_vertices, gt.n_edges)
    got = ds.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    exp = (
        gt.edges.to_pandas()[["src", "dst"]]
        .sort_values(["src", "dst"])
        .reset_index(drop=True)
    )
    assert (got[["src", "dst"]].values == exp.values).all()


@pytest.mark.parametrize("n_ranges", [4, 7])
def test_parallel_range_decode_matches_sequential(tmp_path, n_ranges):
    """Round-3: the .offsets fan-out decode must be edge-identical to the
    sequential root-reader at any range count, window references and all."""
    from ppagerank_ray.sources.bvgraph import (
        decode_bvgraph,
        decode_bvgraph_range,
        encode_bvgraph,
        read_bvgraph,
        read_offsets,
        read_properties,
    )

    rng = np.random.default_rng(n_ranges)
    succ = _random_successors(rng, 500)
    base = str(tmp_path / "pg")
    encode_bvgraph(succ, base)
    props = read_properties(base)
    seq_s, seq_d = [], []
    for s, d in decode_bvgraph(base):
        seq_s.append(s)
        seq_d.append(d)
    seq_s = np.concatenate(seq_s) if seq_s else np.empty(0, np.int64)
    seq_d = np.concatenate(seq_d) if seq_d else np.empty(0, np.int64)
    offsets = read_offsets(base, props["nodes"])
    bounds = np.linspace(0, props["nodes"], n_ranges + 1).astype(int)
    par_s, par_d = [], []
    for x0, x1 in zip(bounds[:-1], bounds[1:]):
        s, d = decode_bvgraph_range(base, offsets, int(x0), int(x1), props)
        par_s.append(s)
        par_d.append(d)
    np.testing.assert_array_equal(np.concatenate(par_s), seq_s)
    np.testing.assert_array_equal(np.concatenate(par_d), seq_d)
    # the Dataset reader dispatches through ray tasks and must agree too
    ds, m, n, nnz = read_bvgraph(base, parallelism=4)
    got = ds.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
    order = np.lexsort((seq_d, seq_s))
    np.testing.assert_array_equal(got["src"].to_numpy(), seq_s[order])
    np.testing.assert_array_equal(got["dst"].to_numpy(), seq_d[order])
    assert nnz == len(seq_s) and m == props["nodes"]


def test_bitwriter_streaming_flush_equivalence(tmp_path):
    """Tiny flush windows, sink-mode and in-memory mode must all produce
    byte-identical streams (ADVICE round 2: incremental packed flush)."""
    from ppagerank_ray.sources.bvgraph import BitWriter

    def fill(w):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            w.write_gamma(int(rng.integers(0, 500)))
            w.write_zeta(int(rng.integers(0, 500)), 3)
            w.write_unary(int(rng.integers(0, 20)))
            w.write_int(int(rng.integers(0, 255)), 8)

    big = BitWriter(flush_bits=1 << 30)
    fill(big)
    small = BitWriter(flush_bits=8)
    fill(small)
    assert big.getvalue() == small.getvalue()
    assert big.bit_count == small.bit_count
    p = tmp_path / "sink.bits"
    with open(p, "wb") as f:
        sw = BitWriter(sink=f, flush_bits=64)
        fill(sw)
        sw.finalize()
    assert p.read_bytes() == big.getvalue()


def test_encoder_flush_window_equivalence(tmp_path, monkeypatch):
    """The cross-node op buffer must produce byte-identical output at any
    flush cadence — a 4-op window forces flushes mid-graph at every node
    boundary, a huge one buffers the whole graph (round 3: the emitter
    computes node offsets + sync records per flush; boundary bookkeeping
    errors would corrupt .offsets/.soffsets, not just .graph)."""
    import ppagerank_ray.sources.bvgraph as bvg

    rng = np.random.default_rng(11)
    succ = []
    for x in range(600):
        deg = int(rng.integers(0, 12))
        s = np.unique(rng.integers(0, 600, size=deg))
        if x % 7 == 0 and deg > 0:
            s = np.unique(np.concatenate([s, np.arange(40, 49)]))  # intervals
        succ.append(s)
    # tighten the sync spacing so multiple sync records land in-range
    monkeypatch.setattr(bvg, "OFFSETS_SYNC", 128)

    outs = {}
    orig_init = bvg._EncodeEmitter.__init__
    for name, flush_ops in [("huge", 1 << 30), ("tiny", 4)]:
        base = str(tmp_path / name)
        monkeypatch.setattr(
            bvg._EncodeEmitter,
            "__init__",
            lambda self, fg, fo, zk, _fo=flush_ops: orig_init(
                self, fg, fo, zk, flush_ops=_fo
            ),
        )
        bvg.encode_bvgraph(succ, base)
        outs[name] = {
            ext: open(base + ext, "rb").read()
            for ext in (".graph", ".offsets", ".soffsets")
        }
    assert outs["huge"] == outs["tiny"]
    # and the tiny-flush output still decodes to the input
    dst = np.concatenate(
        [d for _, d in bvg.decode_bvgraph(str(tmp_path / "tiny"))]
    )
    flat = np.concatenate([s for s in succ if len(s)])
    np.testing.assert_array_equal(dst, flat)


def test_write_bvgraph_rejects_out_of_range_endpoints(tmp_path):
    """ADVICE round 2: src/dst ≥ n_vertices must raise, not silently write
    a graph whose .properties disagree with the caller's vertex count."""
    import pyarrow as pa
    import ray.data as rd

    from ppagerank_ray.sources.bvgraph import write_bvgraph_from_edges

    edges = rd.from_arrow(
        pa.Table.from_pydict({"src": [0, 1, 9], "dst": [1, 2, 0]})
    )
    with pytest.raises(ValueError, match="src outside"):
        write_bvgraph_from_edges(edges, 5, str(tmp_path / "bad"))
    edges2 = rd.from_arrow(
        pa.Table.from_pydict({"src": [0, 1, 2], "dst": [1, 2, 11]})
    )
    with pytest.raises(ValueError, match="dst outside"):
        write_bvgraph_from_edges(edges2, 5, str(tmp_path / "bad2"))


@pytest.mark.parametrize("parallelism", [2, 5])
def test_parallel_write_matches_serial(tmp_path, parallelism):
    """The parallel range WRITER (round 3) must produce a valid BVGraph
    whose decode equals the serial writer's: web-like successors so
    window references actually fire across (and are reset at) range
    boundaries, duplicate arcs, zero-outdegree gaps, and trailing
    isolated nodes. The stitched .offsets/.soffsets sidecars must also
    drive the parallel range decoder correctly."""
    import pyarrow as pa
    import ray.data as rd

    from ppagerank_ray.sources.bvgraph import (
        read_bvgraph,
        read_offsets,
        write_bvgraph_from_edges,
    )

    rng = np.random.default_rng(13)
    V = 3_000
    srcs, dsts = [], []
    for x in range(0, V - 200, 2):  # even nodes only → odd ones are gaps
        deg = int(rng.integers(1, 15))
        base = max(0, x - 60)
        d = np.unique(rng.integers(base, min(V, base + 120), size=deg))
        if x % 3 == 0 and x > 0:  # heavy overlap with a near predecessor
            prev = dsts[-1]
            d = np.unique(np.concatenate([d, prev[: len(prev) // 2 + 1]]))
        srcs.append(np.full(len(d), x, dtype=np.int64))
        dsts.append(d.astype(np.int64))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    # duplicate arcs must collapse
    src = np.concatenate([src, src[:50]])
    dst = np.concatenate([dst, dst[:50]])
    perm = rng.permutation(len(src))
    edges = rd.from_arrow(pa.table({"src": src[perm], "dst": dst[perm]}))

    i_ser = write_bvgraph_from_edges(edges, V, str(tmp_path / "ser"),
                                     parallelism=1)
    i_par = write_bvgraph_from_edges(edges, V, str(tmp_path / "par"),
                                     parallelism=parallelism)
    assert i_ser == i_par

    def edge_table(base):
        ds, M, N, nnz = read_bvgraph(base, parallelism=3)
        t = ds.to_pandas().sort_values(["src", "dst"]).reset_index(drop=True)
        return t, nnz

    a, nnz_a = edge_table(str(tmp_path / "ser"))
    b, nnz_b = edge_table(str(tmp_path / "par"))
    assert nnz_a == nnz_b == i_ser["arcs"]
    assert a.equals(b)
    # the stitched offsets sidecar is self-consistent with the stream
    offs = read_offsets(str(tmp_path / "par"), V)
    assert len(offs) == V + 1 and (np.diff(offs) >= 0).all()
    graph_bits = (tmp_path / "par.graph").stat().st_size * 8
    assert graph_bits - 8 < offs[-1] <= graph_bits


@pytest.mark.parametrize(
    "window,minint,zk,mrc",
    [(7, 3, 3, 3), (0, 2, 2, 3), (3, 4, 1, 1), (7, 0, 3, 5)],
)
def test_parallel_range_decode_param_combos(tmp_path, window, minint, zk, mrc):
    """Range decode must match sequential for every codec-parameter combo,
    including no-window (no refs), no-intervals, and deep/shallow
    maxrefcount chains (the seed-span proof depends on maxrefcount)."""
    from ppagerank_ray.sources.bvgraph import (
        decode_bvgraph,
        decode_bvgraph_range,
        encode_bvgraph,
        read_offsets,
        read_properties,
    )

    rng = np.random.default_rng(1000 * window + 100 * minint + 10 * zk + mrc)
    succ = _random_successors(rng, 300)
    base = str(tmp_path / f"pr_{window}_{minint}_{zk}_{mrc}")
    encode_bvgraph(
        succ, base, window_size=window, min_interval_length=minint,
        zeta_k=zk, max_ref_count=mrc,
    )
    props = read_properties(base)
    seq = {}
    for s, d in decode_bvgraph(base):
        for x in np.unique(s):
            seq[int(x)] = np.concatenate([seq.get(int(x), np.empty(0, np.int64)), d[s == x]])
    offsets = read_offsets(base, props["nodes"])
    for x0, x1 in [(0, 80), (80, 200), (200, 300), (150, 151)]:
        s, d = decode_bvgraph_range(base, offsets, x0, x1, props)
        for x in range(x0, x1):
            np.testing.assert_array_equal(
                d[s == x], seq.get(x, np.empty(0, np.int64)),
                err_msg=f"node {x} range [{x0},{x1}) w={window}",
            )


def test_offsets_range_matches_full_decode(tmp_path):
    """The sync-indexed per-range offsets decode must reproduce the full
    γ-stream decode for arbitrary windows, including across sync points."""
    import ppagerank_ray.sources.bvgraph as bvg

    rng = np.random.default_rng(9)
    succ = _random_successors(rng, 400)
    base = str(tmp_path / "so")
    # small sync spacing so a 400-node graph crosses several sync points
    orig = bvg.OFFSETS_SYNC
    bvg.OFFSETS_SYNC = 64
    try:
        bvg.encode_bvgraph(succ, base)
    finally:
        bvg.OFFSETS_SYNC = orig
    full = bvg.read_offsets(base, 400)
    recs = bvg.read_sync_records(base)
    assert recs[0, 0] == 0 and recs[-1, 0] == 400
    for x0, x1 in [(0, 10), (63, 65), (64, 64), (100, 400), (399, 400)]:
        got = bvg.read_offsets_range(base, x0, x1)
        np.testing.assert_array_equal(got, full[x0 : x1 + 1], err_msg=f"{x0}:{x1}")
    ds, m, n, nnz = bvg.read_bvgraph(base, parallelism=5)
    assert n == 400 and nnz == sum(len(s) for s in succ)
