// Tests for the buffer-pool Workspace and the zero-allocation steady-state
// contract it exists to uphold (DESIGN.md §10): after a warm-up epoch has
// sized every temporary, training epochs — single-device and distributed,
// semantic compression included — perform zero heap allocations, proven by
// the obs alloc counters installed in src/obs/alloc.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "scgnn/common/parallel.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/obs/alloc.hpp"
#include "scgnn/obs/metrics.hpp"
#include "scgnn/obs/obs.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/workspace.hpp"

namespace scgnn {
namespace {

using tensor::Matrix;
using tensor::Workspace;

// ------------------------------------------------------------- the pool --

TEST(Workspace, FirstAcquireMissesThenSameShapeHits) {
    Workspace ws;
    Matrix a = ws.acquire(8, 4);
    EXPECT_EQ(a.rows(), 8u);
    EXPECT_EQ(a.cols(), 4u);
    EXPECT_EQ(ws.misses(), 1u);
    EXPECT_EQ(ws.hits(), 0u);
    ws.release(a);
    EXPECT_EQ(ws.pooled_buffers(), 1u);

    Matrix b = ws.acquire(8, 4);
    EXPECT_EQ(ws.hits(), 1u);
    EXPECT_EQ(ws.misses(), 1u);
    EXPECT_EQ(ws.pooled_buffers(), 0u);
    ws.release(b);
}

TEST(Workspace, AcquireReturnsZeroedStorage) {
    Workspace ws;
    Matrix a = ws.acquire(3, 3);
    a.fill(7.5f);
    ws.release(a);
    Matrix b = ws.acquire(3, 3);
    for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_EQ(b.data()[i], 0.0f) << "recycled buffer not re-zeroed";
    ws.release(b);
}

TEST(Workspace, BestFitPrefersSmallestSufficientBuffer) {
    Workspace ws;
    Matrix big = ws.acquire(10, 10);    // 400-byte class
    Matrix small = ws.acquire(2, 5);    // 40-byte class
    ws.release(big);
    ws.release(small);
    const std::size_t bytes_pooled = ws.pooled_bytes();

    // Fits both; best fit must consume the small one and leave the big
    // buffer's capacity pooled.
    Matrix m = ws.acquire(1, 8);
    EXPECT_EQ(ws.hits(), 1u);
    EXPECT_EQ(ws.pooled_buffers(), 1u);
    EXPECT_GE(ws.pooled_bytes(), 100 * sizeof(float));
    EXPECT_LT(ws.pooled_bytes(), bytes_pooled);
    ws.release(m);
}

TEST(Workspace, OversizeRequestGrowsLargestPooledBuffer) {
    Workspace ws;
    Matrix a = ws.acquire(4, 4);
    ws.release(a);
    // Nothing pooled fits 20×20: counted as a miss, but the pool still
    // recycles (and grows) the existing buffer instead of abandoning it.
    Matrix b = ws.acquire(20, 20);
    EXPECT_EQ(ws.misses(), 2u);
    EXPECT_EQ(ws.hits(), 0u);
    EXPECT_EQ(ws.pooled_buffers(), 0u);
    ws.release(b);
    EXPECT_GE(ws.pooled_bytes(), 400 * sizeof(float));
}

TEST(Workspace, LeaseWithNullWorkspaceOwnsPlainMatrix) {
    Workspace::Lease lease(nullptr, 5, 6);
    EXPECT_EQ(lease.get().rows(), 5u);
    EXPECT_EQ(lease.get().cols(), 6u);
    lease.get().fill(1.0f);
    EXPECT_EQ(lease.get()(4, 5), 1.0f);
}

TEST(Workspace, LeaseReturnsStorageOnDestruction) {
    Workspace ws;
    {
        Workspace::Lease lease(&ws, 6, 6);
        EXPECT_EQ(ws.pooled_buffers(), 0u);
        EXPECT_EQ(ws.misses(), 1u);
    }
    EXPECT_EQ(ws.pooled_buffers(), 1u);
    {
        Workspace::Lease lease(&ws, 6, 6);
        EXPECT_EQ(ws.hits(), 1u);
    }
}

TEST(Matrix, ReshapeZeroReusesCapacityAndReleaseStorageEmpties) {
    Matrix m(10, 10);
    const float* payload = m.data();
    m.reshape_zero(5, 8);   // smaller: must reuse the existing storage
    EXPECT_EQ(m.rows(), 5u);
    EXPECT_EQ(m.cols(), 8u);
    EXPECT_EQ(m.data(), payload);
    for (std::size_t i = 0; i < m.size(); ++i) ASSERT_EQ(m.data()[i], 0.0f);

    std::vector<float> storage = m.release_storage();
    EXPECT_GE(storage.capacity(), 100u);
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

// ------------------------------------------------- the alloc instrument --

TEST(AllocCounters, CountOnlyWhileTrackingEnabled) {
    obs::set_alloc_tracking(false);
    obs::reset_alloc_stats();
    { std::vector<char> untracked(1 << 12); }
    EXPECT_EQ(obs::alloc_stats().count, 0u);

    obs::set_alloc_tracking(true);
    { std::vector<char> tracked(1 << 12); }
    obs::set_alloc_tracking(false);
    const obs::AllocStats s = obs::alloc_stats();
    EXPECT_GE(s.count, 1u);
    EXPECT_GE(s.bytes, std::size_t{1} << 12);

    obs::reset_alloc_stats();
    EXPECT_EQ(obs::alloc_stats().count, 0u);
    EXPECT_EQ(obs::alloc_stats().bytes, 0u);
}

TEST(AllocCounters, SyncPublishesIntoMetricsRegistry) {
    const bool was_enabled = obs::enabled();
    obs::set_enabled(false);
    obs::reset();
    obs::set_enabled(true);

    obs::reset_alloc_stats();
    obs::set_alloc_tracking(true);
    { std::vector<char> tracked(1 << 10); }
    obs::set_alloc_tracking(false);
    obs::sync_alloc_counters();

    EXPECT_GE(obs::registry().counter("alloc.count").value(), 1u);
    EXPECT_GE(obs::registry().counter("alloc.bytes").value(),
              std::uint64_t{1} << 10);

    // A second sync with no new allocations publishes a zero delta, not a
    // double count.
    const std::uint64_t once = obs::registry().counter("alloc.count").value();
    obs::sync_alloc_counters();
    EXPECT_EQ(obs::registry().counter("alloc.count").value(), once);

    obs::reset_alloc_stats();
    obs::reset();
    obs::set_enabled(was_enabled);
}

// --------------------------------------- the steady-state contract --

/// The headline test of DESIGN.md §10: once shapes have settled, a
/// single-device training epoch with a Workspace attached performs ZERO
/// heap allocations — dropout active, Adam stepping, loss computed.
TEST(SteadyState, SingleDeviceEpochIsAllocationFree) {
    ThreadCountGuard guard(1);  // pool dispatch itself is exempt by design
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.3, 7);
    const auto adj = gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    gnn::SpmmAggregator agg(adj);

    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 32;
    mc.out_dim = d.num_classes;
    mc.dropout = 0.3f;  // exercise the mask path, the easiest one to leak
    gnn::GnnModel model(mc);
    gnn::Adam opt(model.parameters());
    Workspace ws;

    double warm = 0.0;
    for (int e = 0; e < 3; ++e)
        warm += gnn::run_epoch(model, opt, agg, d.features, d.labels,
                               d.train_mask, &ws);
    ASSERT_TRUE(std::isfinite(warm));

    obs::reset_alloc_stats();
    obs::set_alloc_tracking(true);
    double loss = 0.0;
    for (int e = 0; e < 5; ++e)
        loss += gnn::run_epoch(model, opt, agg, d.features, d.labels,
                               d.train_mask, &ws);
    obs::set_alloc_tracking(false);

    const obs::AllocStats s = obs::alloc_stats();
    EXPECT_EQ(s.count, 0u) << "steady-state epochs allocated " << s.count
                           << " times (" << s.bytes << " bytes)";
    EXPECT_TRUE(std::isfinite(loss));
}

/// Distributed counterpart, measured end-to-end through train_distributed
/// (which owns its Workspace internally): the allocation count of a run
/// must not grow with the epoch count once past warm-up — an 8-epoch run
/// allocates exactly as many times as a 4-epoch run, the extra epochs
/// being allocation-free. Comparing whole runs cancels the setup-time
/// allocations (partition contexts, k-means grouping, fabric state).
/// Covers plain semantic compression, quantisation, the composed stack and
/// its error-feedback wrap (the paper's cross-compatibility stack).
class SteadyState : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyState, DistributedEpochsBeyondWarmupAllocationFree) {
    ThreadCountGuard guard(1);
    const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kPubMedSim, 0.25, 9);
    const auto parts = partition::make_partitioning(
        partition::PartitionAlgo::kNodeCut, d.graph, 2, 9);
    gnn::GnnConfig mc;
    mc.in_dim = static_cast<std::uint32_t>(d.features.cols());
    mc.hidden_dim = 32;
    mc.out_dim = d.num_classes;

    const auto count_allocs = [&](std::uint32_t epochs) {
        dist::DistTrainConfig cfg;
        cfg.epochs = epochs;
        cfg.record_epochs = false;
        const auto comp = dist::make_compressor(GetParam(), {});
        obs::reset_alloc_stats();
        obs::set_alloc_tracking(true);
        const auto r =
            runtime::Scenario::for_training(cfg).train(d, parts, mc, *comp);
        obs::set_alloc_tracking(false);
        EXPECT_TRUE(std::isfinite(r.final_loss));
        return obs::alloc_stats().count;
    };

    const std::uint64_t four = count_allocs(4);
    const std::uint64_t eight = count_allocs(8);
    EXPECT_EQ(eight, four) << "epochs 5-8 allocated " << (eight - four)
                           << " times — steady state is not allocation-free";
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, SteadyState,
    ::testing::Values("ours", "quant", "ours+quant", "ef+ours+quant"),
    [](const ::testing::TestParamInfo<const char*>& stack) {
        std::string name = stack.param;
        for (char& c : name)
            if (c == '+') c = '_';
        return name;
    });

} // namespace
} // namespace scgnn
