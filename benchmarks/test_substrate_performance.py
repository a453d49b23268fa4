"""Substrate performance benches: placer, router and LH-graph scaling.

Not a paper table, but the numbers that justify the paper's premise: a
global router is the bottleneck of the placement loop (§1 — "time
consumption tends to be unacceptable when utilizing a global router"),
while an LHNN forward pass is cheap.  These benches time each pipeline
stage and LHNN inference on the default suite scale, so regressions in any
substrate show up in CI.

The ``train_step`` pair compares the per-design training loop against the
block-diagonal batched step over the same designs (the training substrate
of :mod:`repro.train.trainer`): batching must stay measurably faster, and
``test_bench_neighbor_sampling`` tracks the vectorised CSR sampler.

The ``dtype`` benches measure the numerical engine's float32 compute
policy against the float64 baseline on identical work — train epoch,
conv forward/backward, spmm, serve flush — and record into the
tracked ``BENCH_nn.json`` report (see :mod:`repro.perf.report` and
``benchmarks/README.md``).  The train-epoch speedup is a hard gate:
float32 must be ≥ 1.5× float64 with eval F1 within noise.  These four
wall-clock gates are marked ``slow``: tier-1 stays free of timing
assertions, and nightly CI (``-m ""``) still runs them.
"""

import time

import numpy as np
import pytest

from repro import perf
from repro.circuit import DesignSpec, generate_design
from repro.data.dataset import collate_samples, sample_of
from repro.graph import batch_graphs, build_lhgraph, sampled_operators
from repro.models.lhnn import LHNN, LHNNConfig
from repro.nn import DtypeConfig, SparseMatrix, Tensor, no_grad, spmm
from repro.nn.conv import Conv2d
from repro.nn.losses import JointLoss
from repro.nn.optim import Adam
from repro.perf.report import speedup_entry
from repro.placement import PlacementConfig, place
from repro.routing import GlobalRouter, RouterConfig, extract_maps
from repro.train.metrics import evaluate_binary


@pytest.fixture(scope="module")
def bench_design():
    return generate_design(DesignSpec(name="bench", seed=99,
                                      num_movable=900, die_size=64.0))


@pytest.fixture(scope="module")
def bench_placed(bench_design):
    d = bench_design.copy()
    place(d, PlacementConfig())
    return d


@pytest.fixture(scope="module")
def bench_routed(bench_placed):
    router = GlobalRouter(bench_placed.copy(), RouterConfig())
    return router.run()


@pytest.fixture(scope="module")
def bench_graph(bench_placed, bench_routed):
    return build_lhgraph(bench_placed, bench_routed.grid,
                         extract_maps(bench_routed.grid))


def test_bench_placement(bench_design, benchmark):
    def run():
        d = bench_design.copy()
        return place(d, PlacementConfig())
    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.hpwl_final > 0


def test_bench_global_routing(bench_placed, benchmark):
    def run():
        return GlobalRouter(bench_placed.copy(), RouterConfig()).run()
    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.num_segments > 0


def test_bench_lhgraph_build(bench_placed, bench_routed, benchmark):
    maps = extract_maps(bench_routed.grid)
    graph = benchmark(build_lhgraph, bench_placed, bench_routed.grid, maps)
    assert graph.num_gnets > 0


def test_bench_lhnn_inference(bench_graph, benchmark):
    """The paper's speed claim: model inference ≪ global routing."""
    model = LHNN(LHNNConfig(), np.random.default_rng(0))
    model.eval()

    def run():
        with no_grad():
            return model(bench_graph)

    out = benchmark(run)
    assert np.isfinite(out.cls_prob.data).all()


def test_bench_lhnn_train_step(bench_graph, benchmark):
    model = LHNN(LHNNConfig(), np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=2e-3)
    loss_fn = JointLoss()
    cls_t = bench_graph.congestion[:, :1]
    reg_t = bench_graph.demand[:, :1]

    def step():
        opt.zero_grad()
        out = model(bench_graph)
        loss = loss_fn(out.cls_prob, out.reg_pred, cls_t, reg_t)
        loss.backward()
        opt.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# Batched vs per-design training substrate
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bench_graph_suite():
    """Labelled LH-graphs of distinct small designs (one training batch).

    Sized to the regime the batched substrate targets: per-design graphs
    small enough that per-call overhead (one numpy/scipy dispatch per
    operator per design) rivals the sparse compute itself, which is
    exactly the scale of the seeded training suite.
    """
    graphs = []
    for seed in range(6):
        design = generate_design(DesignSpec(name=f"bench{seed}",
                                            seed=100 + seed,
                                            num_movable=200, die_size=32.0))
        place(design, PlacementConfig())
        routed = GlobalRouter(design, RouterConfig(nx=16, ny=16,
                                                   capacity_h=10.0,
                                                   capacity_v=10.0,
                                                   rrr_iterations=3)).run()
        graphs.append(build_lhgraph(design, routed.grid,
                                    extract_maps(routed.grid)))
    return graphs


def _train_step(model, opt, loss_fn, graph):
    opt.zero_grad()
    out = model(graph)
    loss = loss_fn(out.cls_prob, out.reg_pred,
                   graph.congestion[:, :1], graph.demand[:, :1])
    loss.backward()
    opt.step()
    return loss


def test_bench_train_epoch_per_design(bench_graph_suite, benchmark):
    """Baseline: one optimizer step per design (the pre-batching loop)."""
    model = LHNN(LHNNConfig(), np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=2e-3)
    loss_fn = JointLoss()

    def epoch():
        return [_train_step(model, opt, loss_fn, g)
                for g in bench_graph_suite]

    losses = benchmark(epoch)
    assert all(np.isfinite(l.item()) for l in losses)


def test_bench_train_epoch_batched(bench_graph_suite, benchmark):
    """One block-diagonal step over the same designs; must beat the
    per-design epoch above (fewer, larger sparse matmuls; the composition
    is built once, as the trainer does before its first epoch)."""
    model = LHNN(LHNNConfig(), np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=2e-3 * len(bench_graph_suite))
    loss_fn = JointLoss()
    batch = batch_graphs(bench_graph_suite)

    loss = benchmark(_train_step, model, opt, loss_fn, batch)
    assert np.isfinite(loss.item())


def test_bench_neighbor_sampling(bench_graph, benchmark):
    """Vectorised CSR neighbour sampling ({6,3,2} fan-outs, all relations)."""
    rng = np.random.default_rng(0)
    ops = benchmark(sampled_operators, bench_graph,
                    {"featuregen": 6, "hypermp": 3, "latticemp": 2}, rng)
    assert np.diff(ops["op_cc_mean"].mat.indptr).max() <= 2


# ---------------------------------------------------------------------------
# Staged preparation throughput (workers × cache temperature)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def prepare_bench_setup():
    """Config + designs for the prepare-throughput benches (tiny suite)."""
    from repro.circuit import superblue_suite
    from repro.pipeline import PipelineConfig
    config = PipelineConfig(scale=0.25, grid_nx=16, grid_ny=16,
                            placement=PlacementConfig(outer_iterations=2),
                            router=RouterConfig(nx=16, ny=16,
                                                rrr_iterations=2))
    return config, superblue_suite(scale=0.25)[:6]


def _prepare_all(designs, config, cache_root, workers):
    from repro.pipeline import StageCache, prepare_designs
    graphs, _ = prepare_designs(designs, config, workers=workers,
                                cache=StageCache(cache_root))
    return graphs


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bench_prepare_cold(prepare_bench_setup, benchmark, tmp_path,
                            workers):
    """Cold-cache suite preparation: full place-and-route per design.

    ``workers=1`` is the sequential in-process path; higher counts fan
    designs out over a ``ProcessPoolExecutor`` (wins scale with physical
    cores — on a single-core runner the pool only adds fork overhead).
    """
    import shutil
    config, designs = prepare_bench_setup
    root = str(tmp_path / f"cold{workers}")

    def clear():
        shutil.rmtree(root, ignore_errors=True)
        return (), {}

    graphs = benchmark.pedantic(
        lambda: _prepare_all(designs, config, root, workers),
        setup=clear, rounds=2, iterations=1)
    assert len(graphs) == len(designs)


@pytest.mark.slow
def test_bench_prepare_warm(prepare_bench_setup, benchmark, tmp_path):
    """Warm-cache suite preparation: pure manifest + blob loads, no
    placement or routing work (the steady state of every data-touching
    CLI command after the first)."""
    config, designs = prepare_bench_setup
    root = str(tmp_path / "warm")
    _prepare_all(designs, config, root, workers=1)

    from repro.pipeline import reset_stage_calls, STAGE_CALLS
    reset_stage_calls()
    graphs = benchmark(lambda: _prepare_all(designs, config, root, 1))
    assert len(graphs) == len(designs)
    assert STAGE_CALLS["place"] == 0 and STAGE_CALLS["route"] == 0


# ---------------------------------------------------------------------------
# float32 compute policy vs float64 baseline (records BENCH_nn.json)
# ---------------------------------------------------------------------------
BENCH_REPORT = ("BENCH_nn.json",
                {"source": "benchmarks/test_substrate_performance.py",
                 "suite": "6x superblue @ scale 0.25, 16x16 G-cells"})


def _best_of(fn, rounds: int = 5) -> float:
    """Minimum wall time of ``fn()`` over ``rounds`` (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def congested_graph_suite():
    """Like ``bench_graph_suite`` but routed at half the track capacity,
    so the congestion labels are non-trivial and the dtype gate's F1
    parity check compares real positives instead of two empty maps."""
    graphs = []
    for seed in range(6):
        design = generate_design(DesignSpec(name=f"congested{seed}",
                                            seed=100 + seed,
                                            num_movable=200, die_size=32.0))
        place(design, PlacementConfig())
        routed = GlobalRouter(design, RouterConfig(nx=16, ny=16,
                                                   capacity_h=5.0,
                                                   capacity_v=5.0,
                                                   rrr_iterations=3)).run()
        graphs.append(build_lhgraph(design, routed.grid,
                                    extract_maps(routed.grid)))
    assert any(g.congestion_rate(0) > 0 for g in graphs)
    return graphs


def _lhnn_training_run(graphs, dtype, bench_report,
                       steps_per_epoch: int = 6):
    """Batched-LHNN epoch closure + trained-model F1 at one dtype.

    Mirrors the real training substrate: one block-diagonal supergraph
    step over the whole suite, Adam, joint loss, inputs materialised by
    ``sample_of`` in the compute dtype.  At float32 the op-level
    breakdown of one epoch becomes ``bench_report.perf_ops``.
    """
    with DtypeConfig(dtype):
        samples = [sample_of(g) for g in graphs]
        batch = collate_samples(samples)
        model = LHNN(LHNNConfig(), np.random.default_rng(0))
        # Linear LR scaling by batch membership, as in the real batched
        # training loop — the timed epochs also train the model enough
        # for a meaningful F1 parity check afterwards.
        opt = Adam(model.parameters(), lr=2e-3 * len(graphs))
        loss_fn = JointLoss()
        vc, vn = Tensor(batch.features), Tensor(batch.net_features)

        def step():
            opt.zero_grad()
            out = model(batch.graph, vc=vc, vn=vn)
            loss = loss_fn(out.cls_prob, out.reg_pred,
                           batch.cls_target, batch.reg_target)
            loss.backward()
            opt.step()
            return loss

        def epoch():
            for _ in range(steps_per_epoch):
                step()

        seconds = _best_of(epoch, rounds=5)

        # Op-level breakdown of one epoch (captured outside the timing).
        if dtype is np.float32:
            perf.enable()
            epoch()
            bench_report.perf_ops = perf.perf_report()
            perf.disable()

        # Train past the steep part of the learning curve before the
        # parity evaluation: mid-curve F1 is dominated by trajectory
        # noise, not dtype error.
        for _ in range(10):
            epoch()
        model.eval()
        with no_grad():
            out = model(batch.graph, vc=vc, vn=vn)
        f1 = evaluate_binary(out.cls_prob.data, batch.cls_target)["f1"]
    return seconds, f1


@pytest.mark.slow
def test_bench_train_epoch_float32_speedup(congested_graph_suite,
                                           bench_report):
    """Acceptance gate: float32 train epoch ≥ 1.5× the float64 baseline,
    with eval F1 within noise.  The measured numbers become the
    ``train_epoch`` entry of ``BENCH_nn.json``."""
    t64, f1_64 = _lhnn_training_run(congested_graph_suite, np.float64,
                                    bench_report)
    t32, f1_32 = _lhnn_training_run(congested_graph_suite, np.float32,
                                    bench_report)
    bench_report.entries["train_epoch"] = speedup_entry(
        t32, t64, f1_float32=f1_32, f1_float64=f1_64,
        f1_delta=abs(f1_32 - f1_64))
    assert abs(f1_32 - f1_64) <= 5.0, (f1_32, f1_64)
    assert t64 / t32 >= 1.5, (f"float32 epoch {t32:.4f}s vs float64 "
                              f"{t64:.4f}s — only {t64 / t32:.2f}x")


@pytest.mark.slow
def test_bench_conv2d_dtype(bench_graph_suite, bench_report):
    """Conv2d forward/backward at both dtypes (U-Net / Pix2Pix hot path).

    The strided-view im2col and the slice-add col2im apply to both
    precisions; the entries track the remaining dtype gap."""
    timings = {}
    for dtype in (np.float64, np.float32):
        with DtypeConfig(dtype):
            rng = np.random.default_rng(0)
            conv = Conv2d(8, 16, 3, rng, padding=1)
            x = Tensor(rng.standard_normal((1, 8, 64, 64))
                       .astype(dtype), requires_grad=True)

            def forward():
                return conv(x)

            out = forward()
            seed = np.ones_like(out.data)

            def forward_backward():
                x.grad = None
                conv.zero_grad()
                forward().backward(seed)

            timings[dtype] = (_best_of(forward, rounds=5),
                              _best_of(forward_backward, rounds=5))
    fwd64, fb64 = timings[np.float64]
    fwd32, fb32 = timings[np.float32]
    bench_report.entries["conv2d_forward"] = speedup_entry(fwd32, fwd64)
    bench_report.entries["conv2d_backward"] = speedup_entry(
        max(fb32 - fwd32, 1e-9), max(fb64 - fwd64, 1e-9))
    assert fwd32 <= fwd64 * 1.25  # float32 must not regress


@pytest.mark.slow
def test_bench_spmm_dtype(bench_graph_suite, bench_report):
    """The message-passing kernel at both dtypes on the real batched
    operators (block-diagonal lattice + incidence of the bench suite)."""
    from repro.graph.batch import batch_graphs
    batched = batch_graphs(list(bench_graph_suite))
    ops = [batched.op_cc_mean, batched.op_nc_scaled_sum.T,
           batched.op_cn_mean]
    timings = {}
    for dtype in (np.float64, np.float32):
        x = Tensor(np.random.default_rng(0)
                   .standard_normal((batched.num_gcells, 32)).astype(dtype))
        xn = Tensor(np.random.default_rng(1)
                    .standard_normal((batched.num_gnets, 32)).astype(dtype))

        def sweep():
            spmm(ops[0], x)
            spmm(ops[1], x)
            spmm(ops[2], x)
            spmm(ops[1].T, xn)

        timings[dtype] = _best_of(sweep, rounds=10)
    bench_report.entries["spmm"] = speedup_entry(timings[np.float32],
                                                 timings[np.float64])
    assert timings[np.float32] <= timings[np.float64] * 1.25


@pytest.mark.slow
def test_bench_serve_flush_dtype(bench_graph_suite, bench_report):
    """Warm serving flush latency at both dtypes: queued prepared graphs
    answered in micro-batched no-grad forward passes."""
    from repro.serve import InferenceEngine, PredictRequest, ServeConfig
    timings = {}
    for dtype in (np.float64, np.float32):
        with DtypeConfig(dtype):
            model = LHNN(LHNNConfig(), np.random.default_rng(0))
            engine = InferenceEngine(model, ServeConfig(max_batch=8))

            def flush_all():
                for g in bench_graph_suite:
                    engine.submit(PredictRequest(graph=g))
                return engine.flush()

            results = flush_all()
            assert len(results) == len(bench_graph_suite)
            timings[dtype] = _best_of(flush_all, rounds=5)
    bench_report.entries["serve_flush"] = speedup_entry(
        timings[np.float32], timings[np.float64])
    assert timings[np.float32] <= timings[np.float64] * 1.25
