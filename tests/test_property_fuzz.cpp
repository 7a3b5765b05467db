// Property-based tests: random DBGs and datasets across many seeds, with
// the library's core invariants checked on every draw —
//   * groupings partition the source set,
//   * L-SALSA weights are normalised,
//   * the semantic aggregate preserves group mass and is exact on full maps,
//   * compression never inflates volume,
//   * the compressed backward stays the adjoint of the compressed forward,
//   * quantisation round-trips within its step bound,
//   * randomized fault schedules never abort training and keep the
//     drop/retry/staleness ledgers consistent,
//   * error feedback is exactly transparent over a lossless inner stage
//     and its resync budget never exceeds ⌈φ·rows⌉ at any fidelity.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "scgnn/core/framework.hpp"
#include "scgnn/core/semantic_aggregate.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/dist/error_feedback.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/dist/sampler.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/quantize.hpp"

namespace scgnn::core {
namespace {

/// Random bipartite structure: every source gets 1..max_deg distinct sinks.
graph::Dbg random_dbg(Rng& rng, std::uint32_t num_src, std::uint32_t num_dst,
                      std::uint32_t max_deg) {
    graph::Dbg d;
    d.src_part = 0;
    d.dst_part = 1;
    d.src_nodes.resize(num_src);
    std::iota(d.src_nodes.begin(), d.src_nodes.end(), 0u);
    d.dst_nodes.resize(num_dst);
    std::iota(d.dst_nodes.begin(), d.dst_nodes.end(), 0u);
    d.ptr = {0};
    for (std::uint32_t u = 0; u < num_src; ++u) {
        const auto deg = static_cast<std::uint32_t>(
            1 + rng.uniform_u64(std::min(max_deg, num_dst)));
        auto sinks = rng.sample_without_replacement(num_dst, deg);
        std::sort(sinks.begin(), sinks.end());
        for (std::uint32_t v : sinks) d.adj.push_back(v);
        d.ptr.push_back(d.adj.size());
    }
    return d;
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, GroupingInvariants) {
    Rng rng(GetParam());
    const graph::Dbg d = random_dbg(rng, 40, 30, 6);
    for (std::uint32_t k : {1u, 3u, 8u}) {
        const Grouping g = build_grouping(d, {.kmeans_k = k,
                                              .seed = GetParam()});
        // Sources partitioned.
        std::set<std::uint32_t> seen(g.raw_rows.begin(), g.raw_rows.end());
        for (const SemanticGroup& grp : g.groups) {
            EXPECT_FALSE(grp.members.empty());
            EXPECT_GT(grp.edges, 0u);
            double out_sum = 0.0, in_sum = 0.0;
            for (float w : grp.out_weights) out_sum += w;
            for (float w : grp.in_weights) in_sum += w;
            EXPECT_NEAR(out_sum, 1.0, 1e-4);
            EXPECT_NEAR(in_sum, 1.0, 1e-4);
            for (std::uint32_t u : grp.members)
                EXPECT_TRUE(seen.insert(u).second);
        }
        EXPECT_EQ(seen.size(), d.num_src());
        // Compression never inflates (wire rows ≤ per-edge rows).
        EXPECT_LE(g.wire_rows(d), d.num_edges());
        EXPECT_GE(g.compression_ratio(d), 1.0);
        // group_of_row index is consistent.
        for (std::uint32_t u = 0; u < d.num_src(); ++u) {
            const std::int32_t gi = g.group_of_row[u];
            if (gi < 0) {
                EXPECT_TRUE(std::find(g.raw_rows.begin(), g.raw_rows.end(),
                                      u) != g.raw_rows.end());
            } else {
                const auto& m = g.groups[gi].members;
                EXPECT_TRUE(std::find(m.begin(), m.end(), u) != m.end());
            }
        }
    }
}

TEST_P(FuzzSeed, SemanticAggregateMassConservation) {
    Rng rng(GetParam() ^ 0x1111);
    const graph::Dbg d = random_dbg(rng, 30, 20, 5);
    const Grouping g = build_grouping(d, {.kmeans_k = 4, .seed = GetParam()});
    const tensor::Matrix src = tensor::Matrix::randn(d.num_src(), 6, rng);
    const AggregateResult exact = traditional_aggregate(d, src);
    const AggregateResult approx = semantic_aggregate(d, g, src);
    for (std::size_t c = 0; c < 6; ++c) {
        double me = 0.0, ma = 0.0;
        for (std::uint32_t v = 0; v < d.num_dst(); ++v) {
            me += exact.sink_values(v, c);
            ma += approx.sink_values(v, c);
        }
        EXPECT_NEAR(me, ma, 1e-3 * (1.0 + std::abs(me)));
    }
    EXPECT_EQ(approx.rows_transmitted, g.wire_rows(d));
}

TEST_P(FuzzSeed, FullMapDbgIsExact) {
    Rng rng(GetParam() ^ 0x2222);
    // Every source connects to every sink: the approximation must be exact.
    const std::uint32_t ns = 2 + static_cast<std::uint32_t>(rng.uniform_u64(6));
    const std::uint32_t nd = 2 + static_cast<std::uint32_t>(rng.uniform_u64(6));
    graph::Dbg d;
    d.src_part = 0;
    d.dst_part = 1;
    d.src_nodes.resize(ns);
    std::iota(d.src_nodes.begin(), d.src_nodes.end(), 0u);
    d.dst_nodes.resize(nd);
    std::iota(d.dst_nodes.begin(), d.dst_nodes.end(), 0u);
    d.ptr = {0};
    for (std::uint32_t u = 0; u < ns; ++u) {
        for (std::uint32_t v = 0; v < nd; ++v) d.adj.push_back(v);
        d.ptr.push_back(d.adj.size());
    }
    const Grouping g = build_grouping(d, {.kmeans_k = 1, .seed = GetParam()});
    const tensor::Matrix src = tensor::Matrix::randn(ns, 4, rng);
    EXPECT_LT(approximation_error(d, g, src), 1e-4);
    EXPECT_EQ(g.wire_rows(d), 1u);
}

TEST_P(FuzzSeed, CompressedBackwardIsAdjoint) {
    Rng rng(GetParam() ^ 0x3333);
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.1, GetParam());
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kRandomCut, data.graph, 2, GetParam());
    const dist::DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);
    if (ctx.plans().empty()) GTEST_SKIP();

    SemanticCompressorConfig sc;
    sc.grouping.kmeans_k = 5;
    SemanticCompressor comp(sc);
    comp.setup(ctx);
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
        const auto rows = ctx.plans()[pi].num_rows();
        const tensor::Matrix x = tensor::Matrix::randn(rows, 3, rng);
        const tensor::Matrix y = tensor::Matrix::randn(rows, 3, rng);
        tensor::Matrix fx, bty;
        (void)comp.forward_rows(ctx, pi, 0, x, fx);
        (void)comp.backward_rows(ctx, pi, 1, y, bty);
        double lhs = 0.0, rhs = 0.0;
        for (std::size_t i = 0; i < fx.size(); ++i) {
            lhs += static_cast<double>(fx.flat()[i]) * y.flat()[i];
            rhs += static_cast<double>(x.flat()[i]) * bty.flat()[i];
        }
        EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0)) << "plan " << pi;
    }
}

TEST_P(FuzzSeed, DistContextInvariants) {
    Rng rng(GetParam() ^ 0x5555);
    graph::PlantedPartitionSpec spec;
    spec.nodes = 150 + static_cast<std::uint32_t>(rng.uniform_u64(150));
    spec.communities = 3;
    spec.avg_degree = 4.0 + rng.uniform() * 12.0;
    graph::Dataset d;
    d.name = "fuzz";
    d.graph = graph::planted_partition(spec, rng, nullptr);
    d.features = tensor::Matrix(d.graph.num_nodes(), 4);
    d.labels.assign(d.graph.num_nodes(), 0);
    d.num_classes = 2;
    d.train_mask = {0};
    d.test_mask = {1};

    const std::uint32_t parts_n =
        2 + static_cast<std::uint32_t>(rng.uniform_u64(4));
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kRandomCut, d.graph, parts_n, GetParam());
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);

    // Local nodes partition the graph.
    std::size_t total_local = 0;
    for (std::uint32_t p = 0; p < parts_n; ++p) {
        total_local += ctx.local_nodes(p).size();
        // Halo slots hold remote nodes only, sorted ascending.
        const auto halo = ctx.halo(p);
        for (std::size_t i = 0; i < halo.size(); ++i) {
            EXPECT_NE(ctx.owner(halo[i]), p);
            if (i != 0) {
                EXPECT_LT(halo[i - 1], halo[i]);
            }
        }
        // Local adjacency covers local rows and (local+halo) columns.
        EXPECT_EQ(ctx.local_adj(p).rows(), ctx.local_nodes(p).size());
        EXPECT_EQ(ctx.local_adj(p).cols(),
                  ctx.local_nodes(p).size() + halo.size());
    }
    EXPECT_EQ(total_local, d.graph.num_nodes());

    // Every halo slot fed exactly once; plan edges sum to the cut × 2.
    std::uint64_t plan_edges = 0;
    std::vector<std::set<std::uint32_t>> fed(parts_n);
    for (const dist::PairPlan& plan : ctx.plans()) {
        plan_edges += plan.num_edges();
        for (std::uint32_t slot : plan.dst_halo_slots)
            EXPECT_TRUE(fed[plan.dst_part].insert(slot).second);
    }
    for (std::uint32_t p = 0; p < parts_n; ++p)
        EXPECT_EQ(fed[p].size(), ctx.halo(p).size());
    EXPECT_EQ(plan_edges,
              2 * partition::evaluate(d.graph, parts).cut_edges);
}

TEST_P(FuzzSeed, ErrorFeedbackLosslessInnerIsTransparent) {
    // With a lossless inner stage the wrapper must be exactly invisible:
    // delivery bitwise-equal to the source and a residual store that
    // never accumulates, across epochs.
    Rng rng(GetParam() ^ 0x7777);
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.1, GetParam());
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kRandomCut, data.graph, 2, GetParam());
    const dist::DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);
    if (ctx.plans().empty()) GTEST_SKIP();

    auto comp = dist::make_compressor("ef+vanilla");
    auto* ef = dynamic_cast<dist::ErrorFeedbackCompressor*>(comp.get());
    ASSERT_NE(ef, nullptr);
    comp->setup(ctx);
    for (std::uint32_t e = 0; e < 3; ++e) {
        comp->begin_epoch(e);
        for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
            const tensor::Matrix src =
                tensor::Matrix::randn(ctx.plans()[pi].num_rows(), 5, rng);
            tensor::Matrix out;
            (void)comp->forward_rows(ctx, pi, 0, src, out);
            EXPECT_TRUE(out == src) << "plan " << pi << " epoch " << e;
        }
        EXPECT_EQ(ef->epoch_residual_norm(), 0.0);
        EXPECT_EQ(ef->recovered_bytes(), 0u);
    }
}

TEST_P(FuzzSeed, ErrorFeedbackResyncBudgetNeverExceeded) {
    // At any fidelity φ an exchange may flush at most ⌈φ·rows⌉ corrective
    // rows, the delivery must stay finite, and the drift signal has to
    // read back as a finite relative norm — for random fidelities, inputs
    // and repeated epochs (residual carried across rounds).
    Rng rng(GetParam() ^ 0x8888);
    const graph::Dataset data =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.1, GetParam());
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kRandomCut, data.graph, 2, GetParam());
    const dist::DistContext ctx(data, parts, gnn::AdjNorm::kSymmetric);
    if (ctx.plans().empty()) GTEST_SKIP();

    dist::CompressorOptions opts;
    opts.semantic.grouping.kmeans_k = 4;
    auto comp = dist::make_compressor("ef+ours", opts);
    auto* ef = dynamic_cast<dist::ErrorFeedbackCompressor*>(comp.get());
    ASSERT_NE(ef, nullptr);
    comp->setup(ctx);
    for (std::uint32_t e = 0; e < 4; ++e) {
        comp->begin_epoch(e);
        const double phi = 0.05 + rng.uniform() * 0.95;
        ef->apply_rate(phi);
        for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
            const auto rows = ctx.plans()[pi].num_rows();
            const tensor::Matrix src = tensor::Matrix::randn(rows, 5, rng);
            tensor::Matrix out;
            const std::uint64_t before = ef->recovered_bytes();
            (void)comp->forward_rows(ctx, pi, 0, src, out);
            const std::uint64_t flushed =
                (ef->recovered_bytes() - before) / (5 * sizeof(float));
            EXPECT_LE(flushed,
                      static_cast<std::uint64_t>(std::ceil(phi * rows)))
                << "phi " << phi << " plan " << pi;
            EXPECT_TRUE(std::isfinite(tensor::frobenius_norm(out)));
        }
        EXPECT_TRUE(std::isfinite(ef->epoch_residual_norm()));
        EXPECT_TRUE(std::isfinite(ef->epoch_relative_residual()));
    }
}

TEST_P(FuzzSeed, QuantRoundTripBound) {
    Rng rng(GetParam() ^ 0x4444);
    const auto rows = 1 + rng.index(20);
    const auto cols = 1 + rng.index(20);
    const tensor::Matrix m = tensor::Matrix::randn(
        rows, cols, rng, static_cast<float>(rng.normal(0.0, 3.0)),
        static_cast<float>(0.1 + rng.uniform() * 5.0));
    for (int bits : {4, 8, 16}) {
        const auto q = tensor::quantize_per_tensor(m, bits);
        EXPECT_LE(tensor::max_abs_diff(m, tensor::dequantize(q)),
                  q.scale * 0.5f + 1e-5f);
    }
}

/// Small end-to-end pipeline config shared by the fault-schedule fuzzers.
PipelineConfig fault_fuzz_cfg(const graph::Dataset& d) {
    PipelineConfig cfg;
    cfg.num_parts = 4;
    cfg.model.in_dim = static_cast<std::uint32_t>(d.features.cols());
    cfg.model.hidden_dim = 16;
    cfg.model.out_dim = d.num_classes;
    cfg.train.epochs = 4;
    cfg.method.semantic.grouping.kmeans_k = 8;
    return cfg;
}

TEST_P(FuzzSeed, FaultScheduleInvariants) {
    // A randomized fault schedule — drop rate in [0, 0.5), random link-down
    // windows, random retry budget — must degrade the run, never abort it,
    // and every counter ledger has to stay mutually consistent.
    Rng rng(GetParam() ^ 0x6666);
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.08, GetParam());
    PipelineConfig cfg = fault_fuzz_cfg(d);
    cfg.train.comm.fault.drop_probability = rng.uniform() * 0.5;
    cfg.train.comm.fault.seed = rng.uniform_u64(1u << 20);
    const auto num_windows = static_cast<std::uint32_t>(rng.uniform_u64(3));
    for (std::uint32_t w = 0; w < num_windows; ++w) {
        comm::LinkDownWindow win;
        win.src = static_cast<std::uint32_t>(rng.index(4));
        do {
            win.dst = static_cast<std::uint32_t>(rng.index(4));
        } while (win.dst == win.src);
        win.first_epoch = static_cast<std::uint32_t>(rng.index(4));
        win.last_epoch =
            win.first_epoch + static_cast<std::uint32_t>(rng.index(3));
        cfg.train.comm.fault.down_windows.push_back(win);
    }
    cfg.train.comm.retry.max_attempts = 1 + static_cast<std::uint32_t>(rng.index(4));
    cfg.train.comm.retry.timeout_s = 1e-3;

    const PipelineResult r = run_pipeline(d, cfg);

    // Training survived (we got here) and produced finite, sane metrics.
    ASSERT_EQ(r.train.epoch_metrics.size(), cfg.train.epochs);
    for (const auto& em : r.train.epoch_metrics)
        EXPECT_TRUE(std::isfinite(em.loss)) << "loss diverged";
    EXPECT_GE(r.train.test_accuracy, 0.0);
    EXPECT_LE(r.train.test_accuracy, 1.0);

    const dist::FaultSummary& f = r.train.fault;
    // Every failed attempt is either retried or ends its send in failure.
    EXPECT_EQ(f.fabric.drops + f.fabric.link_down_hits,
              f.fabric.retries + f.fabric.failures);
    // Attempts decompose into first tries (delivered or failed) + retries.
    EXPECT_EQ(f.fabric.attempts,
              f.fabric.delivered + f.fabric.failures + f.fabric.retries);
    // Each failed send falls back to exactly one stale (or cold) halo use.
    EXPECT_EQ(f.stale_uses, f.fabric.failures);
    EXPECT_LE(f.cold_misses, f.stale_uses);
    std::uint64_t by_part = 0;
    for (std::uint64_t s : f.stale_by_part) by_part += s;
    EXPECT_EQ(by_part, f.stale_uses);
    EXPECT_EQ(f.degraded(), f.stale_uses != 0);
    if (f.stale_uses != 0) {
        EXPECT_GT(f.max_staleness, 0u);
    }
    if (cfg.train.comm.fault.drop_probability == 0.0 && num_windows == 0) {
        EXPECT_FALSE(f.degraded());
    }
}

TEST_P(FuzzSeed, InertFaultScheduleMatchesFaultFreeRun) {
    // A schedule that is armed but can never fire (zero drop rate, one
    // link-down window entirely past the run) must reproduce the fault-free
    // run byte-for-byte, even though the fabric takes the full send/resolve
    // path and consumes RNG draws.
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.08, GetParam());
    const PipelineConfig clean_cfg = fault_fuzz_cfg(d);
    PipelineConfig inert_cfg = clean_cfg;
    inert_cfg.train.comm.fault.seed = GetParam();
    inert_cfg.train.comm.fault.down_windows.push_back(
        comm::LinkDownWindow{.src = 0, .dst = 1,
                             .first_epoch = 100, .last_epoch = 200});
    ASSERT_TRUE(inert_cfg.train.comm.fault.active());

    const PipelineResult clean = run_pipeline(d, clean_cfg);
    const PipelineResult inert = run_pipeline(d, inert_cfg);

    ASSERT_EQ(clean.train.epoch_metrics.size(),
              inert.train.epoch_metrics.size());
    for (std::size_t e = 0; e < clean.train.epoch_metrics.size(); ++e)
        EXPECT_EQ(clean.train.epoch_metrics[e].loss,
                  inert.train.epoch_metrics[e].loss);  // bitwise
    EXPECT_EQ(clean.train.test_accuracy, inert.train.test_accuracy);
    EXPECT_EQ(clean.train.val_accuracy, inert.train.val_accuracy);
    EXPECT_EQ(clean.train.mean_comm_mb, inert.train.mean_comm_mb);
    EXPECT_EQ(clean.train.mean_comm_ms, inert.train.mean_comm_ms);
    EXPECT_FALSE(inert.train.fault.degraded());
    EXPECT_DOUBLE_EQ(inert.train.fault.fabric.penalty_s, 0.0);
}

/// Canonical bitwise dump of a sampled batch (nodes, seeds, per-layer
/// local edges and halo requests at full precision).
std::string render_batch(const dist::SampledBatch& b) {
    std::string out;
    char buf[64];
    for (std::uint32_t v : b.nodes) {
        std::snprintf(buf, sizeof buf, "%u,", v);
        out += buf;
    }
    for (std::uint32_t s : b.seeds) {
        std::snprintf(buf, sizeof buf, "s%u,", s);
        out += buf;
    }
    for (const tensor::SparseMatrix& m : b.local_adj)
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const auto cols = m.row_cols(r);
            const auto vals = m.row_vals(r);
            for (std::size_t e = 0; e < cols.size(); ++e) {
                std::snprintf(buf, sizeof buf, "%zu:%u:%.17g;", r, cols[e],
                              static_cast<double>(vals[e]));
                out += buf;
            }
        }
    for (const auto& layer : b.requests)
        for (const dist::PlanRequest& req : layer)
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e) {
                std::snprintf(buf, sizeof buf, "p%zu:%u>%u*%.17g;",
                              req.plan, req.edge_dst[e], req.edge_req[e],
                              static_cast<double>(req.edge_w[e]));
                out += buf;
            }
    return out;
}

TEST_P(FuzzSeed, NeighborSamplerInvariants) {
    Rng rng(GetParam() ^ 0x5a5au);
    const double scale = 0.06 + 0.06 * rng.uniform();
    const auto parts_n =
        static_cast<std::uint32_t>(2 + rng.uniform_u64(3));
    const graph::Dataset d = graph::make_dataset(
        graph::DatasetPreset::kPubMedSim, scale, GetParam());
    const partition::Partitioning parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, parts_n, GetParam());
    const dist::DistContext ctx(d, parts, gnn::AdjNorm::kSymmetric);

    dist::SamplerConfig cfg;
    cfg.batch_size = static_cast<std::uint32_t>(8 + rng.uniform_u64(56));
    cfg.fanout = {static_cast<std::uint32_t>(1 + rng.uniform_u64(8)),
                  static_cast<std::uint32_t>(1 + rng.uniform_u64(8))};
    cfg.seed = GetParam();
    dist::NeighborSampler s(d, ctx, gnn::AdjNorm::kSymmetric, 2, cfg);
    s.begin_epoch(GetParam() % 5);

    for (std::size_t bi = 0; bi < s.num_batches(); ++bi) {
        const dist::SampledBatch b = s.batch(bi);
        for (std::size_t li = 0; li < b.local_adj.size(); ++li) {
            // Fanout bound: non-self in-degree per consumer ≤ fanout[l],
            // counting local and cross edges together.
            std::vector<std::uint32_t> in_deg(b.nodes.size(), 0);
            for (std::size_t r = 0; r < b.local_adj[li].rows(); ++r)
                for (std::uint32_t c : b.local_adj[li].row_cols(r))
                    if (c != r) ++in_deg[r];
            for (const dist::PlanRequest& req : b.requests[li])
                for (std::uint32_t dst : req.edge_dst) ++in_deg[dst];
            for (std::uint32_t deg : in_deg)
                ASSERT_LE(deg, s.fanout_at(li));
            // Sampled halo ⊆ the full boundary: every requested row is a
            // real row of its plan, ascending unique.
            for (const dist::PlanRequest& req : b.requests[li]) {
                ASSERT_LT(req.plan, ctx.plans().size());
                const dist::PairPlan& plan = ctx.plans()[req.plan];
                for (std::size_t i = 0; i < req.rows.size(); ++i) {
                    if (i > 0) {
                        ASSERT_LT(req.rows[i - 1], req.rows[i]);
                    }
                    ASSERT_LT(req.rows[i], plan.dbg.num_src());
                    ASSERT_EQ(ctx.owner(plan.dbg.src_nodes[req.rows[i]]),
                              plan.src_part);
                }
            }
        }
    }

    // Fixed-seed determinism and thread-count invariance, bitwise.
    auto dump_all = [&]() {
        std::string all;
        for (std::size_t bi = 0; bi < s.num_batches(); ++bi)
            all += render_batch(s.batch(bi));
        return all;
    };
    const std::string base = dump_all();
    EXPECT_EQ(base, dump_all());
    {
        ThreadCountGuard guard(4);
        EXPECT_EQ(base, dump_all());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           0xdeadbeefu));

} // namespace
} // namespace scgnn::core
