// Google-benchmark microbenchmarks for the hot kernels behind the
// reproduction: SpMM (the aggregate), GEMM, semantic similarity (set and
// vectorised forms), sparse k-means grouping, quantisation, and the
// semantic fuse/disassemble kernel. These back the §3.1 claim that the
// vectorised Eq. (2) form is the fast path.
#include <benchmark/benchmark.h>

#include "scgnn/core/grouping.hpp"
#include "scgnn/core/kmeans.hpp"
#include "scgnn/core/semantic_aggregate.hpp"
#include "scgnn/core/similarity.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/graph/bipartite.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/quantize.hpp"
#include "scgnn/tensor/sparse.hpp"

namespace {

using namespace scgnn;

const graph::Dataset& bench_dataset() {
    static const graph::Dataset d =
        graph::make_dataset(graph::DatasetPreset::kRedditSim, 0.2, 7);
    return d;
}

const graph::Dbg& bench_dbg() {
    static const graph::Dbg dbg = [] {
        const auto& d = bench_dataset();
        const auto parts = partition::make_partitioning(
            partition::PartitionAlgo::kNodeCut, d.graph, 2, 3);
        return graph::extract_dbg(d.graph, parts.part_of, 0, 1);
    }();
    return dbg;
}

void BM_Spmm(benchmark::State& state) {
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(
        d.graph.num_nodes(), static_cast<std::size_t>(state.range(0)), rng);
    for (auto _ : state) benchmark::DoNotOptimize(tensor::spmm(adj, h));
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_Spmm)->Arg(16)->Arg(64);

void BM_SpmmParallel(benchmark::State& state) {
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(d.graph.num_nodes(), 64, rng);
    const auto threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::spmm_parallel(adj, h, threads));
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmParallel)->Arg(2)->Arg(4);

void BM_Gemm(benchmark::State& state) {
    Rng rng(2);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
    for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void BM_SemanticSimilaritySet(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    const std::uint32_t n = std::min<std::uint32_t>(dbg.num_src(), 256);
    double acc = 0.0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            acc += core::semantic_similarity(dbg.out_neighbors(i),
                                             dbg.out_neighbors(i + 1));
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_SemanticSimilaritySet);

void BM_SemanticSimilarityVec(benchmark::State& state) {
    // The Eq. (2) vectorised form on dense rows with a shared C_A.
    const auto& dbg = bench_dbg();
    const std::uint32_t n = std::min<std::uint32_t>(dbg.num_src(), 256);
    tensor::Matrix rows(n, dbg.num_dst());
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto dense = dbg.dense_row(i);
        std::copy(dense.begin(), dense.end(), rows.row(i).begin());
    }
    const auto c = core::collection_vector(rows);
    double acc = 0.0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            acc += core::semantic_similarity_vec(rows.row(i), rows.row(i + 1),
                                                 c[i], c[i + 1]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * (n - 1));
}
BENCHMARK(BM_SemanticSimilarityVec);

void BM_KmeansDbg(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    const auto cls = core::classify_sources(dbg);
    std::vector<std::uint32_t> pool;
    for (std::uint32_t u = 0; u < dbg.num_src(); ++u)
        if (cls[u] == graph::ConnectionType::kM2M) pool.push_back(u);
    core::KMeansConfig cfg{.k = static_cast<std::uint32_t>(state.range(0)),
                           .max_iters = 20,
                           .seed = 5};
    for (auto _ : state)
        benchmark::DoNotOptimize(core::kmeans_dbg_rows(dbg, pool, cfg));
    state.SetItemsProcessed(state.iterations() * pool.size());
}
BENCHMARK(BM_KmeansDbg)->Arg(8)->Arg(20);

void BM_BuildGrouping(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    core::GroupingConfig cfg;
    cfg.kmeans_k = 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(core::build_grouping(dbg, cfg));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_BuildGrouping);

void BM_Quantize(benchmark::State& state) {
    Rng rng(6);
    const tensor::Matrix m = tensor::Matrix::randn(2048, 64, rng);
    const int bits = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto q = tensor::quantize_per_tensor(m, bits);
        benchmark::DoNotOptimize(tensor::dequantize(q));
    }
    state.SetBytesProcessed(state.iterations() * m.payload_bytes());
}
BENCHMARK(BM_Quantize)->Arg(4)->Arg(8);

void BM_QuantRoundTrip(benchmark::State& state) {
    // The fused quantise→dequantise the exchange path runs, writing into a
    // reused buffer: same input and bytes as BM_Quantize above.
    Rng rng(6);
    const tensor::Matrix m = tensor::Matrix::randn(2048, 64, rng);
    const int bits = static_cast<int>(state.range(0));
    tensor::Matrix out;
    for (auto _ : state) {
        tensor::quantize_roundtrip_into(m, bits, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * m.payload_bytes());
}
BENCHMARK(BM_QuantRoundTrip)->Arg(4)->Arg(8);

void BM_SemanticFuse(benchmark::State& state) {
    // The Fig. 7(b) fuse+disassemble path vs per-edge transmission below.
    const auto& dbg = bench_dbg();
    const core::Grouping g = core::build_grouping(dbg, {.kmeans_k = 20});
    Rng rng(7);
    const tensor::Matrix src = tensor::Matrix::randn(dbg.num_src(), 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::semantic_aggregate(dbg, g, src));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_SemanticFuse);

void BM_TraditionalAggregate(benchmark::State& state) {
    const auto& dbg = bench_dbg();
    Rng rng(8);
    const tensor::Matrix src = tensor::Matrix::randn(dbg.num_src(), 64, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::traditional_aggregate(dbg, src));
    state.SetItemsProcessed(state.iterations() * dbg.num_edges());
}
BENCHMARK(BM_TraditionalAggregate);

// --- scalar-vs-SIMD kernel pairs ----------------------------------------
//
// Each *Path bench takes the kernel path as its last argument (0 = scalar,
// 1 = simd) so BENCH_kernels.json carries both sides of every pair and the
// speedup is a plain ratio of two committed rows. Run single-threaded
// (scripts/bench_snapshot.sh exports SCGNN_THREADS=1) so the ratio
// measures the microkernels, not the pool.

/// Skip (with an explicit error, so the JSON row says why) when the SIMD
/// side is requested on a host without AVX2+FMA.
bool skip_unsupported(benchmark::State& state, bool simd) {
    if (simd && !tensor::simd_supported()) {
        state.SkipWithError("AVX2+FMA not supported on this host");
        return true;
    }
    return false;
}

tensor::KernelPath path_of(const benchmark::State& state) {
    return state.range(1) != 0 ? tensor::KernelPath::kSimd
                               : tensor::KernelPath::kScalar;
}

void BM_GemmPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    tensor::KernelPathGuard guard(path_of(state));
    Rng rng(2);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
    tensor::Matrix c;
    for (auto _ : state) {
        tensor::matmul_into(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmPath)
    ->ArgNames({"n", "simd"})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_GemmABtPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    tensor::KernelPathGuard guard(path_of(state));
    Rng rng(3);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(n, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(n, n, rng);
    tensor::Matrix c;
    for (auto _ : state) {
        tensor::matmul_a_bt_into(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmABtPath)
    ->ArgNames({"n", "simd"})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_SpmmPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    tensor::KernelPathGuard guard(path_of(state));
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(
        d.graph.num_nodes(), static_cast<std::size_t>(state.range(0)), rng);
    tensor::Matrix out;
    for (auto _ : state) {
        tensor::spmm_into(adj, h, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmPath)
    ->ArgNames({"f", "simd"})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_SpmmBlockedPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    tensor::KernelPathGuard guard(path_of(state));
    const auto& d = bench_dataset();
    const auto adj =
        gnn::normalized_adjacency(d.graph, gnn::AdjNorm::kSymmetric);
    const tensor::BlockedCsr blocked(adj);
    Rng rng(1);
    const tensor::Matrix h = tensor::Matrix::randn(
        d.graph.num_nodes(), static_cast<std::size_t>(state.range(0)), rng);
    tensor::Matrix out;
    for (auto _ : state) {
        tensor::spmm_into(blocked, h, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpmmBlockedPath)
    ->ArgNames({"f", "simd"})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_AxpyPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    const bool simd = state.range(1) != 0;
    Rng rng(4);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix x = tensor::Matrix::randn(1, n, rng);
    tensor::Matrix y = tensor::Matrix::randn(1, n, rng);
    for (auto _ : state) {
        if (simd)
            tensor::kern::axpy_avx2(1.0009765625f, x.data(), y.data(), n);
        else
            tensor::kern::axpy_scalar(1.0009765625f, x.data(), y.data(), n);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AxpyPath)
    ->ArgNames({"n", "simd"})
    ->Args({4096, 0})
    ->Args({4096, 1});

void BM_DotPath(benchmark::State& state) {
    if (skip_unsupported(state, state.range(1) != 0)) return;
    const bool simd = state.range(1) != 0;
    Rng rng(5);
    const auto n = static_cast<std::size_t>(state.range(0));
    const tensor::Matrix a = tensor::Matrix::randn(1, n, rng);
    const tensor::Matrix b = tensor::Matrix::randn(1, n, rng);
    float acc = 0.0f;
    for (auto _ : state) {
        acc += simd ? tensor::kern::dot_avx2(a.data(), b.data(), n)
                    : tensor::kern::dot_scalar(a.data(), b.data(), n);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DotPath)
    ->ArgNames({"n", "simd"})
    ->Args({4096, 0})
    ->Args({4096, 1});

} // namespace

BENCHMARK_MAIN();
