// End-to-end benchmark of the SC-GNN simulator with per-layer attribution.
//
//   e2e_bench --workload <train-dense|train-exchange|sample-train|serve>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every workload derives all of its seeds from --seed, runs its fixed-size
// call through the libraries' public entry points, checks the outputs and
// prints one JSON object as its last line of standard output. Values named
// host.* are wall time of this process; values named model.* (and the
// comm./core./runtime. counts) are modelled and exact at a fixed seed.
//
// --trace 0 reports the end-to-end metrics: the training loop runs behind
// runtime::Scenario::train with a pass-through compressor whose only extra
// work is one clock read per epoch. --trace 1 rebuilds the trainer's static
// path from public calls, wraps the aggregator and the compressor in
// timers, replays the kernels, and reports the per-layer metrics; its
// losses and bytes must equal the untraced run's bit for bit.
//
// The trainer's own EpochMetrics::epoch_ms / compute_ms are not used: they
// are host wall time divided by the device count, so they move with the
// host and the pool width.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scgnn/comm/fabric.hpp"
#include "scgnn/comm/topology.hpp"
#include "scgnn/common/parallel.hpp"
#include "scgnn/common/rng.hpp"
#include "scgnn/core/semantic_compressor.hpp"
#include "scgnn/dist/context.hpp"
#include "scgnn/dist/factory.hpp"
#include "scgnn/dist/sampler.hpp"
#include "scgnn/dist/trainer.hpp"
#include "scgnn/gnn/adjacency.hpp"
#include "scgnn/gnn/model.hpp"
#include "scgnn/gnn/optimizer.hpp"
#include "scgnn/gnn/trainer.hpp"
#include "scgnn/graph/dataset.hpp"
#include "scgnn/partition/partition.hpp"
#include "scgnn/runtime/inference.hpp"
#include "scgnn/runtime/scenario.hpp"
#include "scgnn/tensor/kernels.hpp"
#include "scgnn/tensor/ops.hpp"
#include "scgnn/tensor/sparse.hpp"
#include "scgnn/tensor/workspace.hpp"

namespace {

using namespace scgnn;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

// ------------------------------------------------------------- statistics

/// Quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

// ---------------------------------------------------------------- results

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Output checks and reported metrics of one benchmark run.
class Report {
public:
    /// Record one output check; a failure is counted in `failed`.
    void check(const std::string& name, bool ok, const std::string& detail = "") {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::printf("CHECK FAILED: %s %s\n", name.c_str(), detail.c_str());
        }
        checks_.push_back({name, ok});
    }

    /// Work items (served queries) attempted / not completed.
    void items(std::uint64_t attempted, std::uint64_t failed) {
        attempted_ += attempted;
        failed_ += failed;
    }

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_.push_back({name, value, unit});
    }

    /// Report every name of `table` not reported yet as 0 (a layer the
    /// workload does not exercise).
    template <std::size_t N>
    void fill_missing(const Metric (&table)[N]) {
        for (const Metric& m : table) {
            const bool have = std::any_of(
                metrics_.begin(), metrics_.end(),
                [&](const Metric& x) { return x.name == m.name; });
            if (!have) metrics_.push_back(m);
        }
    }

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

    void print_table() const {
        for (const Metric& m : metrics_)
            std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("  checks: %zu, attempted %llu, failed %llu\n",
                    checks_.size(),
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
    }

    void print_json(const std::string& provenance) const {
        std::printf("{\"provenance\": %s, \"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"checks\": {",
                    provenance.c_str(), failed_ == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
        for (std::size_t i = 0; i < checks_.size(); ++i)
            std::printf("%s\"%s\": %s", i ? ", " : "", checks_[i].first.c_str(),
                        checks_[i].second ? "true" : "false");
        std::printf("}, \"metrics\": {");
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
    }

private:
    std::vector<std::pair<std::string, bool>> checks_;
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Every per-layer metric of the traced run, with its unit.
const Metric kLayerMetrics[] = {
    {"graph.make_dataset_s", 0, "s"},
    {"partition.make_partitioning_s", 0, "s"},
    {"partition.cut_fraction", 0, "ratio"},
    {"partition.boundary_fraction", 0, "ratio"},
    {"dist.context_s", 0, "s"},
    {"dist.plans", 0, "count"},
    {"dist.aggregate_ms", 0, "ms"},
    {"dist.aggregate_self_ms", 0, "ms"},
    {"dist.sampler_batch_ms", 0, "ms"},
    {"dist.sampler_batch_nodes", 0, "count"},
    {"dist.requested_rows_per_epoch", 0, "count"},
    {"dist.request_mb_per_epoch", 0, "MB"},
    {"core.compressor_setup_s", 0, "s"},
    {"core.compress_ms", 0, "ms"},
    {"core.compress_calls_per_epoch", 0, "count"},
    {"core.subset_ms", 0, "ms"},
    {"core.subset_calls_per_epoch", 0, "count"},
    {"core.wire_mb_per_epoch", 0, "MB"},
    {"core.groups", 0, "count"},
    {"core.wire_rows", 0, "count"},
    {"core.compression_ratio", 0, "ratio"},
    {"tensor.spmm_ms", 0, "ms"},
    {"tensor.spmm_gflops", 0, "GFLOP/s"},
    {"tensor.gemm_ms", 0, "ms"},
    {"tensor.gemm_gflops", 0, "GFLOP/s"},
    {"gnn.dense_ms", 0, "ms"},
    {"gnn.eval_ms", 0, "ms"},
    {"comm.messages_per_epoch", 0, "count"},
    {"comm.mb_per_epoch", 0, "MB"},
    {"comm.model_ms_per_epoch", 0, "ms"},
    {"runtime.server_build_s", 0, "s"},
    {"runtime.serve_run_s", 0, "s"},
    {"runtime.hit_rate", 0, "ratio"},
    {"runtime.halo_mb", 0, "MB"},
    {"runtime.mean_batch", 0, "count"},
    {"runtime.batches", 0, "count"},
    {"runtime.max_qps", 0, "1/s"},
    {"obs.trace_overhead_pct", 0, "%"},
    {"obs.epoch_coverage", 0, "ratio"},
};

// -------------------------------------------------------------- workloads

/// Seeds of one run, all derived from --seed (seed 0 gives the library
/// defaults: dataset 2024, partition 99, model 11, sampler 17, queries 23).
struct Seeds {
    std::uint64_t dataset, partition, model, sampler, queries;
    explicit Seeds(std::uint64_t s)
        : dataset(2024 + s), partition(99 + s), model(11 + s),
          sampler(17 + s), queries(23 + s) {}
};

struct Workload {
    const char* name;
    graph::DatasetPreset preset;
    double scale;
    std::uint32_t parts;
    partition::PartitionAlgo algo;
    const char* method;    ///< dist::make_compressor name
    const char* topology;  ///< comm::parse_topology spec
    bool sampled;
    bool serve;
    double accuracy_floor;  ///< minimum test accuracy of the trained model
};

constexpr Workload kWorkloads[] = {
    // Node-cut on reddit-sim at P=4 lands anywhere between a 0.18 and a
    // 0.59 cut fraction depending on the seed, which would make every
    // train-dense figure a function of the seed's cut; the multilevel
    // partitioner finds the 0.18 cut on every seed.
    {"train-dense", graph::DatasetPreset::kRedditSim, 1.0, 4,
     partition::PartitionAlgo::kMultilevel, "ours", "flat", false, false, 0.90},
    {"train-exchange", graph::DatasetPreset::kOgbnProductsSim, 1.0, 16,
     partition::PartitionAlgo::kNodeCut, "ef+ours+quant", "hier:4x4", false,
     false, 0.70},
    {"sample-train", graph::DatasetPreset::kPubMedSim, 1.0, 4,
     partition::PartitionAlgo::kNodeCut, "ours", "flat", true, false, 0.60},
    {"serve", graph::DatasetPreset::kPubMedSim, 4.0, 4,
     partition::PartitionAlgo::kNodeCut, "", "flat", false, true, 0.0},
};

/// Worker-pool width, pinned below the core count of the 4-core hosts this
/// runs on: at the full width, epoch times spread far wider between runs.
constexpr unsigned kPoolWidth = 2;

/// Training epochs of one measured call: epoch 0 and the last epoch (which
/// holds the final evaluation) are excluded, leaving 100 timed epochs.
constexpr std::uint32_t kEpochs = 102;
/// Epochs of the traced comparison (20 timed).
constexpr std::uint32_t kTraceEpochs = 22;
/// Epochs of the short set-up and determinism calls.
constexpr std::uint32_t kPrefixEpochs = 2;
/// Set-up samples per run (setup_s is their median): one per call, from at
/// least kSetups calls; short calls run in bursts of kBurstS before and
/// after every measured call, up to kMaxSetups samples.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kMaxSetups = 25;
constexpr double kBurstS = 1.0;

// Serving sweep: open-loop rates, the reference rate and the latency limit.
constexpr double kRates[] = {8000, 16000, 24000, 32000, 40000, 48000};
constexpr double kReferenceQps = 16000;
constexpr double kP99LimitMs = 5.0;
constexpr std::uint32_t kSweepQueries = 50000;
/// A rate whose p99 over kSweepQueries exceeds this factor times its p99
/// over half as many queries has a growing backlog.
constexpr double kBacklogGrowth = 1.25;
/// Queries of one timed serving step.
constexpr std::uint32_t kStepQueries = 5000;
constexpr std::size_t kMinSteps = 100;

gnn::GnnConfig model_config(const graph::Dataset& d, const Seeds& s) {
    return gnn::GnnConfig{
        .in_dim = static_cast<std::uint32_t>(d.features.cols()),
        .hidden_dim = 64,
        .out_dim = d.num_classes,
        .kind = gnn::LayerKind::kGcn,
        .seed = s.model};
}

dist::CompressorOptions compressor_options() {
    dist::CompressorOptions o;
    o.semantic.grouping.kmeans_k = 20;
    return o;
}

runtime::ScenarioConfig scenario_config(const Workload& w, const Seeds& s,
                                        std::uint32_t epochs) {
    runtime::ScenarioConfig c;
    c.mode = w.sampled ? runtime::ScenarioMode::kSampleTrain
                       : runtime::ScenarioMode::kTrain;
    c.pipeline.num_parts = w.parts;
    c.pipeline.partition_seed = s.partition;
    c.pipeline.algo = w.algo;
    c.pipeline.train.epochs = epochs;
    if (!comm::parse_topology(w.topology, c.pipeline.train.comm.topology)) {
        std::fprintf(stderr, "bad topology %s\n", w.topology);
        std::exit(2);
    }
    c.sampler.batch_size = 512;
    c.sampler.fanout = {10, 5};
    c.sampler.seed = s.sampler;
    return c;
}

// ------------------------------------------------- pass-through wrappers

/// Per-epoch counters of the traced compressor.
struct CompressorEpoch {
    double full_s = 0.0;
    std::uint64_t full_calls = 0;
    double subset_s = 0.0;
    std::uint64_t subset_calls = 0;
};

/// Pass-through BoundaryCompressor. Untraced, its only extra work is one
/// clock read in begin_epoch() plus a byte sum; traced, it also times and
/// counts every exchange call per epoch.
class TimedCompressor final : public dist::BoundaryCompressor {
public:
    TimedCompressor(std::unique_ptr<dist::BoundaryCompressor> inner,
                    bool trace, std::size_t epochs)
        : inner_(std::move(inner)), trace_(trace) {
        starts_.reserve(epochs);
        if (trace_) epochs_.reserve(epochs);
    }

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    void setup(const dist::DistContext& ctx) override { inner_->setup(ctx); }
    void begin_epoch(std::uint64_t epoch) override {
        starts_.push_back(Clock::now());
        if (trace_) epochs_.emplace_back();
        inner_->begin_epoch(epoch);
    }
    void set_workspace(tensor::Workspace* ws) override {
        inner_->set_workspace(ws);
    }
    void apply_rate(double fidelity) override { inner_->apply_rate(fidelity); }
    [[nodiscard]] std::uint64_t state_bytes(std::uint32_t part) const override {
        return inner_->state_bytes(part);
    }

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override {
        return timed(false, [&] {
            return inner_->forward_rows(ctx, plan_idx, layer, src, out);
        });
    }
    [[nodiscard]] std::uint64_t backward_rows(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        const tensor::Matrix& grad_in, tensor::Matrix& grad_out) override {
        return timed(false, [&] {
            return inner_->backward_rows(ctx, plan_idx, layer, grad_in,
                                         grad_out);
        });
    }
    [[nodiscard]] std::uint64_t forward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& src,
        tensor::Matrix& out) override {
        return timed(true, [&] {
            return inner_->forward_subset(ctx, plan_idx, layer, rows, src, out);
        });
    }
    [[nodiscard]] std::uint64_t backward_subset(
        const dist::DistContext& ctx, std::size_t plan_idx, int layer,
        std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
        tensor::Matrix& grad_out) override {
        return timed(true, [&] {
            return inner_->backward_subset(ctx, plan_idx, layer, rows, grad_in,
                                           grad_out);
        });
    }

    [[nodiscard]] const dist::BoundaryCompressor& inner() const { return *inner_; }
    /// Clock reading at the top of every epoch.
    [[nodiscard]] const std::vector<Clock::time_point>& starts() const {
        return starts_;
    }
    [[nodiscard]] const std::vector<CompressorEpoch>& epochs() const {
        return epochs_;
    }
    [[nodiscard]] std::uint64_t total_bytes() const noexcept { return bytes_; }

private:
    template <class F>
    std::uint64_t timed(bool subset, F&& call) {
        if (!trace_ || epochs_.empty()) {
            const std::uint64_t b = call();
            bytes_ += b;
            return b;
        }
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t b = call();
        const double s = since(t0);
        CompressorEpoch& e = epochs_.back();
        (subset ? e.subset_s : e.full_s) += s;
        ++(subset ? e.subset_calls : e.full_calls);
        bytes_ += b;
        return b;
    }

    std::unique_ptr<dist::BoundaryCompressor> inner_;
    bool trace_;
    std::vector<Clock::time_point> starts_;
    std::vector<CompressorEpoch> epochs_;
    std::uint64_t bytes_ = 0;
};

/// Pass-through gnn::Aggregator that adds the time of every aggregate call
/// to the current epoch's slot.
class TimedAggregator final : public gnn::Aggregator {
public:
    explicit TimedAggregator(gnn::Aggregator& inner) : inner_(&inner) {}

    void set_slot(double* slot) noexcept { slot_ = slot; }

    [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& h,
                                         int layer) override {
        tensor::Matrix out;
        forward_into(h, layer, out);
        return out;
    }
    [[nodiscard]] tensor::Matrix backward(const tensor::Matrix& g,
                                          int layer) override {
        tensor::Matrix out;
        backward_into(g, layer, out);
        return out;
    }
    void forward_into(const tensor::Matrix& h, int layer,
                      tensor::Matrix& out) override {
        const Clock::time_point t0 = Clock::now();
        inner_->forward_into(h, layer, out);
        *slot_ += since(t0);
    }
    void backward_into(const tensor::Matrix& g, int layer,
                       tensor::Matrix& out) override {
        const Clock::time_point t0 = Clock::now();
        inner_->backward_into(g, layer, out);
        *slot_ += since(t0);
    }

private:
    gnn::Aggregator* inner_;
    double* slot_ = nullptr;
};

/// The sampled trainer's per-batch aggregator, rebuilt from public calls:
/// batch-local SpMM for the intra-device edges, and every cross-device
/// request through the compressor's subset exchange, charged to the fabric.
class SampledAggregator final : public gnn::Aggregator {
public:
    SampledAggregator(const dist::DistContext& ctx, comm::Fabric& fabric,
                      dist::BoundaryCompressor& comp, tensor::Workspace& ws)
        : ctx_(&ctx), fabric_(&fabric), comp_(&comp), ws_(&ws) {}

    void set_batch(const dist::SampledBatch& b) noexcept { batch_ = &b; }
    [[nodiscard]] std::uint64_t requested_rows() const noexcept { return rows_; }
    [[nodiscard]] std::uint64_t request_bytes() const noexcept { return bytes_; }

    [[nodiscard]] tensor::Matrix forward(const tensor::Matrix& h,
                                         int layer) override {
        tensor::Matrix out;
        forward_into(h, layer, out);
        return out;
    }
    [[nodiscard]] tensor::Matrix backward(const tensor::Matrix& g,
                                          int layer) override {
        tensor::Matrix out;
        backward_into(g, layer, out);
        return out;
    }

    void forward_into(const tensor::Matrix& h, int layer,
                      tensor::Matrix& out) override {
        const auto li = static_cast<std::size_t>(layer);
        const std::size_t f = h.cols();
        tensor::spmm_into(batch_->local_adj[li], h, out);
        for (const dist::PlanRequest& req : batch_->requests[li]) {
            const dist::PairPlan& plan = ctx_->plans()[req.plan];
            const std::size_t n = req.rows.size();
            tensor::Workspace::Lease src(ws_, n, f);
            for (std::size_t i = 0; i < n; ++i) {
                const auto from = h.row(req.src_local[i]);
                std::copy(from.begin(), from.end(), src.get().row(i).begin());
            }
            tensor::Workspace::Lease recon(ws_, n, f);
            const std::uint64_t bytes = comp_->forward_subset(
                *ctx_, req.plan, layer, req.rows, src.get(), recon.get());
            (void)fabric_->send(plan.src_part, plan.dst_part, bytes);
            rows_ += n;
            bytes_ += bytes;
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e) {
                const auto r = recon.get().row(req.edge_req[e]);
                auto d = out.row(req.edge_dst[e]);
                const float w = req.edge_w[e];
                for (std::size_t c = 0; c < f; ++c) d[c] += w * r[c];
            }
        }
    }

    void backward_into(const tensor::Matrix& g, int layer,
                       tensor::Matrix& out) override {
        const auto li = static_cast<std::size_t>(layer);
        const std::size_t f = g.cols();
        tensor::spmm_transposed_into(batch_->local_adj[li], g, out);
        for (const dist::PlanRequest& req : batch_->requests[li]) {
            const dist::PairPlan& plan = ctx_->plans()[req.plan];
            const std::size_t n = req.rows.size();
            tensor::Workspace::Lease gin(ws_, n, f);
            for (std::size_t e = 0; e < req.edge_dst.size(); ++e) {
                const auto s = g.row(req.edge_dst[e]);
                auto d = gin.get().row(req.edge_req[e]);
                const float w = req.edge_w[e];
                for (std::size_t c = 0; c < f; ++c) d[c] += w * s[c];
            }
            tensor::Workspace::Lease gout(ws_, n, f);
            const std::uint64_t bytes = comp_->backward_subset(
                *ctx_, req.plan, layer, req.rows, gin.get(), gout.get());
            (void)fabric_->send(plan.dst_part, plan.src_part, bytes);
            rows_ += n;
            bytes_ += bytes;
            for (std::size_t i = 0; i < n; ++i) {
                const auto s = gout.get().row(i);
                auto d = out.row(req.src_local[i]);
                for (std::size_t c = 0; c < f; ++c) d[c] += s[c];
            }
        }
    }

private:
    const dist::DistContext* ctx_;
    comm::Fabric* fabric_;
    dist::BoundaryCompressor* comp_;
    tensor::Workspace* ws_;
    const dist::SampledBatch* batch_ = nullptr;
    std::uint64_t rows_ = 0;
    std::uint64_t bytes_ = 0;
};

// ------------------------------------------------------ training: untraced

/// The modelled outcome of a training call; compared bitwise across calls,
/// pool widths and the traced rebuild.
struct TrainModel {
    std::vector<double> loss, comm_mb, comm_ms;
    double test_accuracy = 0.0;
    std::uint64_t compressor_bytes = 0;
    std::uint64_t fabric_bytes = 0;
    std::uint64_t request_bytes = 0;
    std::uint64_t requested_rows = 0;

    /// True when the first `n` epochs match `o` bit for bit.
    [[nodiscard]] bool prefix_equal(const TrainModel& o, std::size_t n) const {
        if (loss.size() < n || o.loss.size() < n) return false;
        for (std::size_t e = 0; e < n; ++e)
            if (loss[e] != o.loss[e] || comm_mb[e] != o.comm_mb[e] ||
                comm_ms[e] != o.comm_ms[e])
                return false;
        return true;
    }
    [[nodiscard]] bool equal(const TrainModel& o) const {
        return loss.size() == o.loss.size() && prefix_equal(o, loss.size()) &&
               test_accuracy == o.test_accuracy &&
               compressor_bytes == o.compressor_bytes;
    }
};

struct TrainCall {
    double setup_s = 0.0;
    double run_s = 0.0;
    std::vector<double> epoch_ms;  ///< steady epochs only
    TrainModel model;
};

std::vector<double> steady_epoch_ms(const std::vector<Clock::time_point>& t) {
    std::vector<double> out;
    // Epoch e lasts from its start to the next epoch's start; epoch 0 and
    // the last epoch (no successor; it holds the final evaluation) are
    // excluded.
    for (std::size_t e = 1; e + 1 < t.size(); ++e)
        out.push_back(seconds_between(t[e], t[e + 1]) * 1e3);
    return out;
}

/// One untraced training call: dataset → partitioning → Scenario::train.
TrainCall train_call(const Workload& w, const Seeds& s, std::uint32_t epochs) {
    TrainCall call;
    const Clock::time_point t0 = Clock::now();
    const graph::Dataset data = graph::make_dataset(w.preset, w.scale, s.dataset);
    const partition::Partitioning parts = partition::make_partitioning(
        w.algo, data.graph, w.parts, s.partition);
    TimedCompressor comp(dist::make_compressor(w.method, compressor_options()),
                         false, epochs);
    const runtime::Scenario scn =
        runtime::Scenario::build(scenario_config(w, s, epochs));
    const dist::DistTrainResult r =
        scn.train(data, parts, model_config(data, s), comp);
    call.run_s = since(t0);
    call.setup_s = seconds_between(t0, comp.starts().front());
    call.epoch_ms = steady_epoch_ms(comp.starts());

    TrainModel& m = call.model;
    for (const dist::EpochMetrics& em : r.epoch_metrics) {
        m.loss.push_back(em.loss);
        m.comm_mb.push_back(em.comm_mb);
        m.comm_ms.push_back(em.comm_ms);
        m.fabric_bytes += static_cast<std::uint64_t>(std::llround(em.comm_mb * 1e6));
    }
    m.test_accuracy = r.test_accuracy;
    m.compressor_bytes = comp.total_bytes();
    m.request_bytes = r.sampling.request_bytes;
    m.requested_rows = r.sampling.requested_rows;
    return call;
}

void check_training_outputs(Report& rep, const Workload& w,
                            const TrainModel& m) {
    bool finite = !m.loss.empty();
    for (const double l : m.loss) finite = finite && std::isfinite(l);
    rep.check("loss_finite", finite);
    rep.check("loss_falls", finite && m.loss.back() < m.loss.front(),
              std::to_string(m.loss.front()) + " -> " +
                  std::to_string(m.loss.back()));
    rep.check("accuracy_floor", m.test_accuracy >= w.accuracy_floor,
              std::to_string(m.test_accuracy));
    rep.check("compressor_bytes_equal_fabric_bytes",
              m.compressor_bytes == m.fabric_bytes,
              std::to_string(m.compressor_bytes) + " vs " +
                  std::to_string(m.fabric_bytes));
    if (w.sampled)
        rep.check("request_bytes_equal_compressor_bytes",
                  m.request_bytes == m.compressor_bytes);
}

void run_training(Report& rep, const Workload& w, const Seeds& s,
                  double seconds) {
    // Set-up samples come from every call. The short calls run in bursts
    // before and after each measured call so that the samples spread over
    // the run: a shared host alternates between a fast and a contended mode
    // every few seconds, and the samples of one burst all land in one mode.
    std::vector<double> setups;
    std::vector<TrainModel> prefixes;
    const auto burst = [&] {
        const Clock::time_point b0 = Clock::now();
        do {
            const TrainCall c = train_call(w, s, kPrefixEpochs);
            setups.push_back(c.setup_s);
            prefixes.push_back(c.model);
        } while (since(b0) < kBurstS && setups.size() < kMaxSetups);
    };

    // Measured calls: repeat the fixed-size call while the next one is
    // predicted to fit in the time budget (at least once).
    std::vector<TrainCall> calls;
    double measured_s = 0.0;
    burst();
    do {
        calls.push_back(train_call(w, s, kEpochs));
        setups.push_back(calls.back().setup_s);
        measured_s += calls.back().run_s;
        burst();
    } while (measured_s + calls.back().run_s <= seconds);
    while (setups.size() < kSetups) burst();
    const TrainModel& m = calls.front().model;
    bool repeat_equal = true;
    for (const TrainCall& c : calls) repeat_equal = repeat_equal && c.model.equal(m);
    rep.check("repeated_calls_bitwise_equal", repeat_equal);
    check_training_outputs(rep, w, m);

    // The short calls' model values must match the long call's first epochs.
    bool prefix_equal = true;
    for (const TrainModel& p : prefixes)
        prefix_equal = prefix_equal && p.prefix_equal(m, kPrefixEpochs);
    rep.check("prefix_calls_bitwise_equal", prefix_equal);

    std::vector<double> epoch_ms, run_s;
    for (const TrainCall& c : calls) {
        run_s.push_back(c.run_s);
        epoch_ms.insert(epoch_ms.end(), c.epoch_ms.begin(), c.epoch_ms.end());
    }

    // Determinism spot-check: the same prefix at pool width 1.
    const unsigned width = num_threads();
    set_num_threads(1);
    const TrainCall one = train_call(w, s, kPrefixEpochs);
    set_num_threads(width);
    rep.check("pool_width_1_bitwise_equal",
              one.model.prefix_equal(m, kPrefixEpochs));

    rep.metric("setup_s", median(setups), "s");
    // Recorded, not in BENCHMARK.json: on a shared host the median step
    // falls between a fast and a contended mode, and host.run_s (the sum
    // of the same epochs) spreads like it; p90 is the gated step time.
    rep.metric("host.step_ms.p50", quantile(epoch_ms, 0.5), "ms");
    rep.metric("host.step_ms.p90", quantile(epoch_ms, 0.9), "ms");
    rep.metric("host.run_s", median(run_s), "s");
    rep.metric("host.peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("model.comm_mb", mean(m.comm_mb), "MB");
    rep.metric("model.latency_ms.p50", quantile(m.comm_ms, 0.5), "ms");
    rep.metric("model.latency_ms.tail", quantile(m.comm_ms, 0.9), "ms");
    rep.metric("model.quality", m.test_accuracy, "ratio");
    std::printf("# %s: %zu calls, %zu timed epochs, final loss %.6f, "
                "test accuracy %.4f, %.6f MB over %zu epochs\n",
                w.name, calls.size(), epoch_ms.size(), m.loss.back(),
                m.test_accuracy,
                static_cast<double>(m.compressor_bytes) / 1e6, m.loss.size());
}

// -------------------------------------------------------- training: traced

struct TracedEpoch {
    Clock::time_point start;
    double run_epoch_s = 0.0;
    double aggregate_s = 0.0;
    double sampler_s = 0.0;
    std::uint64_t sampler_batches = 0;
    std::uint64_t messages = 0;
};

/// The traced rebuild of the trainer's static path. Times each layer from
/// outside: set-up stages, the aggregate calls (with the compressor calls
/// inside them), the dense remainder of gnn::run_epoch and the evaluation.
void run_training_traced(Report& rep, const Workload& w, const Seeds& s) {
    const TrainCall ref = train_call(w, s, kTraceEpochs);

    Clock::time_point t = Clock::now();
    const graph::Dataset data = graph::make_dataset(w.preset, w.scale, s.dataset);
    const double dataset_s = since(t);
    t = Clock::now();
    const partition::Partitioning parts = partition::make_partitioning(
        w.algo, data.graph, w.parts, s.partition);
    const double partition_s = since(t);
    const partition::PartitionQuality pq = partition::evaluate(data.graph, parts);

    const runtime::ScenarioConfig scfg = scenario_config(w, s, kTraceEpochs);
    const dist::DistTrainConfig& cfg = scfg.pipeline.train;
    t = Clock::now();
    const dist::DistContext ctx(data, parts, cfg.norm);
    const double context_s = since(t);
    const comm::Topology topo = comm::Topology::build(
        cfg.comm.topology, parts.num_parts,
        comm::TierModel{cfg.comm.cost.latency_s,
                        cfg.comm.cost.bandwidth_bytes_per_s});
    comm::Fabric fabric(topo);
    TimedCompressor comp(dist::make_compressor(w.method, compressor_options()),
                         true, kTraceEpochs);
    tensor::Workspace ws;
    dist::DistAggregator dist_agg(ctx, fabric, comp);
    SampledAggregator sampled_agg(ctx, fabric, comp, ws);
    gnn::Aggregator& inner_agg =
        w.sampled ? static_cast<gnn::Aggregator&>(sampled_agg) : dist_agg;
    TimedAggregator agg(inner_agg);
    const gnn::GnnConfig model_cfg = model_config(data, s);
    gnn::GnnModel model(model_cfg);
    gnn::Adam opt(model.parameters(), cfg.adam);
    std::unique_ptr<dist::NeighborSampler> sampler;
    if (w.sampled)
        sampler = std::make_unique<dist::NeighborSampler>(
            data, ctx, cfg.norm, model_cfg.num_layers, scfg.sampler);
    t = Clock::now();
    comp.setup(ctx);
    const double setup_s = since(t);
    dist_agg.set_workspace(&ws);
    comp.set_workspace(&ws);
    fabric.reserve_history(kTraceEpochs);
    const tensor::SparseMatrix eval_adj =
        gnn::normalized_adjacency(data.graph, cfg.norm);
    gnn::SpmmAggregator eval_agg(eval_adj);

    TrainModel m;
    std::vector<TracedEpoch> ep(kTraceEpochs);
    tensor::Matrix batch_feat;
    std::vector<std::int32_t> batch_labels;
    std::uint64_t batch_nodes = 0, batches_run = 0;
    for (std::uint32_t e = 0; e < kTraceEpochs; ++e) {
        TracedEpoch& te = ep[e];
        comp.begin_epoch(e);
        te.start = comp.starts().back();
        agg.set_slot(&te.aggregate_s);
        double loss = 0.0;
        if (!w.sampled) {
            const Clock::time_point r0 = Clock::now();
            loss = gnn::run_epoch(model, opt, agg, data.features, data.labels,
                                  data.train_mask, &ws);
            te.run_epoch_s = since(r0);
        } else {
            sampler->begin_epoch(e);
            const std::size_t batches = sampler->num_batches();
            for (std::size_t bi = 0; bi < batches; ++bi) {
                const Clock::time_point b0 = Clock::now();
                const dist::SampledBatch batch = sampler->batch(bi);
                te.sampler_s += since(b0);
                ++te.sampler_batches;
                const Clock::time_point r0 = Clock::now();
                const std::size_t n = batch.nodes.size();
                batch_feat.reshape_zero(n, data.features.cols());
                batch_labels.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto from = data.features.row(batch.nodes[i]);
                    std::copy(from.begin(), from.end(),
                              batch_feat.row(i).begin());
                    batch_labels[i] = data.labels[batch.nodes[i]];
                }
                sampled_agg.set_batch(batch);
                loss += gnn::run_epoch(model, opt, agg, batch_feat,
                                       batch_labels, batch.seeds, &ws);
                te.run_epoch_s += since(r0);
                batch_nodes += n;
                ++batches_run;
            }
            loss /= static_cast<double>(batches);
        }
        const comm::TrafficStats ts = fabric.epoch_stats();
        te.messages = ts.messages;
        m.loss.push_back(loss);
        m.comm_mb.push_back(static_cast<double>(ts.bytes) / 1e6);
        m.comm_ms.push_back(fabric.epoch_comm_seconds() * 1e3);
        m.fabric_bytes += ts.bytes;
        fabric.end_epoch();
    }
    t = Clock::now();
    (void)gnn::evaluate_accuracy(model, eval_agg, data.features, data.labels,
                                 data.train_mask);
    (void)gnn::evaluate_accuracy(model, eval_agg, data.features, data.labels,
                                 data.val_mask);
    m.test_accuracy = gnn::evaluate_accuracy(model, eval_agg, data.features,
                                             data.labels, data.test_mask);
    const double eval_s = since(t);
    m.compressor_bytes = comp.total_bytes();
    m.request_bytes = sampled_agg.request_bytes();
    m.requested_rows = sampled_agg.requested_rows();

    rep.check("traced_equals_untraced", m.equal(ref.model));
    check_training_outputs(rep, w, m);

    // Steady epochs 1 … E−2, as in the untraced run.
    std::vector<double> epoch_ms, agg_ms, agg_self_ms, compress_ms, subset_ms,
        dense_ms, coverage, messages, full_calls, subset_calls, sampler_ms;
    for (std::size_t e = 1; e + 1 < ep.size(); ++e) {
        const double wall = seconds_between(ep[e].start, ep[e + 1].start);
        const CompressorEpoch& ce = comp.epochs()[e];
        const double comp_s = ce.full_s + ce.subset_s;
        epoch_ms.push_back(wall * 1e3);
        agg_ms.push_back(ep[e].aggregate_s * 1e3);
        agg_self_ms.push_back((ep[e].aggregate_s - comp_s) * 1e3);
        compress_ms.push_back(ce.full_s * 1e3);
        subset_ms.push_back(ce.subset_s * 1e3);
        dense_ms.push_back((ep[e].run_epoch_s - ep[e].aggregate_s) * 1e3);
        // The parts: sampler + aggregate (compressor inside) + dense.
        coverage.push_back((ep[e].sampler_s + ep[e].run_epoch_s) / wall);
        messages.push_back(static_cast<double>(ep[e].messages));
        full_calls.push_back(static_cast<double>(ce.full_calls));
        subset_calls.push_back(static_cast<double>(ce.subset_calls));
        if (ep[e].sampler_batches > 0)
            sampler_ms.push_back(ep[e].sampler_s * 1e3 /
                                 static_cast<double>(ep[e].sampler_batches));
    }
    const double cover = median(coverage);
    rep.check("trace_parts_cover_epoch", cover >= 0.95 && cover <= 1.0,
              std::to_string(cover));

    // Semantic grouping of this partitioning (the live grouping when the
    // compressor is plain semantic compression).
    const auto* live = dynamic_cast<const core::SemanticCompressor*>(&comp.inner());
    std::unique_ptr<core::SemanticCompressor> ref_sem;
    if (live == nullptr) {
        ref_sem = std::make_unique<core::SemanticCompressor>(
            compressor_options().semantic);
        ref_sem->setup(ctx);
        live = ref_sem.get();
    }
    double groups = 0.0;
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi)
        groups += static_cast<double>(live->grouping(pi).groups.size());
    const auto wire_rows = static_cast<double>(live->total_wire_rows());

    // Kernel replays at the epoch's shapes: spmm_into over every local
    // adjacency at both aggregation widths, matmul_into at the combine
    // shapes.
    Rng rng(s.model);
    const std::size_t n = data.graph.num_nodes();
    const std::size_t widths[] = {model_cfg.in_dim, model_cfg.hidden_dim};
    double spmm_flops = 0.0;
    std::vector<tensor::Matrix> xs;
    for (std::uint32_t p = 0; p < parts.num_parts; ++p)
        for (const std::size_t f : widths) {
            xs.push_back(tensor::Matrix::randn(ctx.local_adj(p).cols(), f, rng));
            spmm_flops += 2.0 * static_cast<double>(ctx.local_adj(p).nnz() * f);
        }
    tensor::Matrix y;
    std::vector<double> spmm_s;
    for (int rep_i = 0; rep_i < 20; ++rep_i) {
        const Clock::time_point k0 = Clock::now();
        std::size_t i = 0;
        for (std::uint32_t p = 0; p < parts.num_parts; ++p)
            for (std::size_t wi = 0; wi < 2; ++wi)
                tensor::spmm_into(ctx.local_adj(p), xs[i++], y);
        spmm_s.push_back(since(k0));
    }
    const tensor::Matrix a0 = tensor::Matrix::randn(n, model_cfg.in_dim, rng);
    const tensor::Matrix w0 =
        tensor::Matrix::randn(model_cfg.in_dim, model_cfg.hidden_dim, rng);
    const tensor::Matrix a1 = tensor::Matrix::randn(n, model_cfg.hidden_dim, rng);
    const tensor::Matrix w1 =
        tensor::Matrix::randn(model_cfg.hidden_dim, model_cfg.out_dim, rng);
    const double gemm_flops =
        2.0 * static_cast<double>(n) *
        static_cast<double>(model_cfg.in_dim * model_cfg.hidden_dim +
                            model_cfg.hidden_dim * model_cfg.out_dim);
    std::vector<double> gemm_s;
    for (int rep_i = 0; rep_i < 20; ++rep_i) {
        const Clock::time_point k0 = Clock::now();
        tensor::matmul_into(a0, w0, y);
        tensor::matmul_into(a1, w1, y);
        gemm_s.push_back(since(k0));
    }

    const double epochs_n = static_cast<double>(kTraceEpochs);
    const double ref_p50 = median(ref.epoch_ms);
    const double traced_p50 = median(epoch_ms);
    rep.metric("graph.make_dataset_s", dataset_s, "s");
    rep.metric("partition.make_partitioning_s", partition_s, "s");
    rep.metric("partition.cut_fraction", pq.cut_fraction, "ratio");
    rep.metric("partition.boundary_fraction",
               static_cast<double>(pq.boundary_nodes) / static_cast<double>(n),
               "ratio");
    rep.metric("dist.context_s", context_s, "s");
    rep.metric("dist.plans", static_cast<double>(ctx.plans().size()), "count");
    rep.metric("dist.aggregate_ms", median(agg_ms), "ms");
    rep.metric("dist.aggregate_self_ms", median(agg_self_ms), "ms");
    rep.metric("dist.sampler_batch_ms", median(sampler_ms), "ms");
    rep.metric("dist.sampler_batch_nodes",
               batches_run == 0 ? 0.0
                                : static_cast<double>(batch_nodes) /
                                      static_cast<double>(batches_run),
               "count");
    rep.metric("dist.requested_rows_per_epoch",
               static_cast<double>(m.requested_rows) / epochs_n, "count");
    rep.metric("dist.request_mb_per_epoch",
               static_cast<double>(m.request_bytes) / 1e6 / epochs_n, "MB");
    rep.metric("core.compressor_setup_s", setup_s, "s");
    rep.metric("core.compress_ms", median(compress_ms), "ms");
    rep.metric("core.compress_calls_per_epoch", median(full_calls), "count");
    rep.metric("core.subset_ms", median(subset_ms), "ms");
    rep.metric("core.subset_calls_per_epoch", median(subset_calls), "count");
    rep.metric("core.wire_mb_per_epoch",
               static_cast<double>(m.compressor_bytes) / 1e6 / epochs_n, "MB");
    rep.metric("core.groups", groups, "count");
    rep.metric("core.wire_rows", wire_rows, "count");
    rep.metric("core.compression_ratio",
               static_cast<double>(ctx.total_cross_edges()) / wire_rows, "ratio");
    rep.metric("tensor.spmm_ms", median(spmm_s) * 1e3, "ms");
    rep.metric("tensor.spmm_gflops", spmm_flops / median(spmm_s) / 1e9, "GFLOP/s");
    rep.metric("tensor.gemm_ms", median(gemm_s) * 1e3, "ms");
    rep.metric("tensor.gemm_gflops", gemm_flops / median(gemm_s) / 1e9, "GFLOP/s");
    rep.metric("gnn.dense_ms", median(dense_ms), "ms");
    rep.metric("gnn.eval_ms", eval_s * 1e3, "ms");
    rep.metric("comm.messages_per_epoch", median(messages), "count");
    rep.metric("comm.mb_per_epoch", mean(m.comm_mb), "MB");
    rep.metric("comm.model_ms_per_epoch", mean(m.comm_ms), "ms");
    rep.metric("obs.trace_overhead_pct", (traced_p50 - ref_p50) / ref_p50 * 100.0,
               "%");
    rep.metric("obs.epoch_coverage", cover, "ratio");
}

// ------------------------------------------------------------------ serve

runtime::ServeConfig serve_config(const Seeds& s, double qps,
                                  std::uint32_t queries) {
    runtime::ServeConfig c;
    c.qps = qps;
    c.queries = queries;
    c.seed = s.queries;
    c.batch_max = 8;
    c.deadline_ms = 2.0;
    c.compressor = compressor_options().semantic;
    return c;
}

bool same_serve(const runtime::ServeResult& a, const runtime::ServeResult& b) {
    return a.queries == b.queries && a.batches == b.batches &&
           a.p50_ms == b.p50_ms && a.p99_ms == b.p99_ms &&
           a.max_ms == b.max_ms && a.cache_hits == b.cache_hits &&
           a.cache_misses == b.cache_misses && a.halo_mb == b.halo_mb;
}

struct ServeSetup {
    graph::Dataset data;
    partition::Partitioning parts;
    double dataset_s = 0.0, partition_s = 0.0, build_s = 0.0;
};

/// Dataset → partitioning, timed per stage; the server build is timed by
/// the caller.
ServeSetup serve_setup(const Workload& w, const Seeds& s) {
    ServeSetup su;
    Clock::time_point t = Clock::now();
    su.data = graph::make_dataset(w.preset, w.scale, s.dataset);
    su.dataset_s = since(t);
    t = Clock::now();
    su.parts = partition::make_partitioning(w.algo, su.data.graph, w.parts,
                                            s.partition);
    su.partition_s = since(t);
    return su;
}

struct SweepRow {
    double qps = 0.0;
    runtime::ServeResult r, half;
    bool clamped = false, backlog = false, meets = false;
};

void run_serve(Report& rep, const Workload& w, const Seeds& s, double seconds,
               bool trace) {
    const Clock::time_point start = Clock::now();
    // Set-up: dataset, partitioning and the reference-rate server. The
    // first one is kept; more are timed (and dropped) between the swept
    // rates so that the set-up samples spread over the whole run.
    std::vector<double> setups;
    const auto set_up = [&](ServeSetup& su,
                            std::unique_ptr<runtime::InferenceServer>& srv) {
        const Clock::time_point t0 = Clock::now();
        su = serve_setup(w, s);
        const Clock::time_point b0 = Clock::now();
        srv = std::make_unique<runtime::InferenceServer>(
            su.data, su.parts, serve_config(s, kReferenceQps, kSweepQueries));
        su.build_s = since(b0);
        setups.push_back(since(t0));
    };
    ServeSetup su;
    std::unique_ptr<runtime::InferenceServer> server;
    set_up(su, server);
    const double hist_max = server->config().hist_max_ms;
    std::uint64_t attempted = 0, served = 0;

    // Host-timed work, interleaved with the sweep so that its samples
    // spread over the run: the reference stream (kSweepQueries queries)
    // and short steps (kStepQueries), each of which must repeat its first
    // result bit for bit.
    const runtime::InferenceServer step_srv(
        su.data, su.parts, serve_config(s, kReferenceQps, kStepQueries));
    std::vector<double> step_ms, ref_run_s;
    runtime::ServeResult first_step, reference;
    bool repeats_equal = true;
    const auto timed_run = [&](const runtime::InferenceServer& srv,
                               std::vector<double>& out, double scale,
                               runtime::ServeResult& first) {
        const Clock::time_point t0 = Clock::now();
        const runtime::ServeResult r = srv.run();
        out.push_back(since(t0) * scale);
        if (out.size() == 1) first = r;
        repeats_equal = repeats_equal && same_serve(r, first);
        attempted += srv.config().queries;
        served += r.queries;
    };
    const auto host_round = [&] {
        timed_run(*server, ref_run_s, 1.0, reference);
        for (std::size_t i = 0; i < kMinSteps / std::size(kRates); ++i)
            timed_run(step_srv, step_ms, 1e3, first_step);
    };

    // The sweep: every rate at kSweepQueries; a rate that meets the limit
    // is served again at half the stream length, and a p99 that grows with
    // the stream length marks a growing backlog.
    std::vector<SweepRow> rows;
    for (const double qps : kRates) {
        SweepRow row;
        row.qps = qps;
        const runtime::InferenceServer srv(su.data, su.parts,
                                           serve_config(s, qps, kSweepQueries));
        row.r = srv.run();
        attempted += kSweepQueries;
        served += row.r.queries;
        row.clamped = row.r.max_ms >= hist_max;
        if (row.r.p99_ms <= kP99LimitMs && !row.clamped) {
            const runtime::InferenceServer half(
                su.data, su.parts, serve_config(s, qps, kSweepQueries / 2));
            row.half = half.run();
            attempted += kSweepQueries / 2;
            served += row.half.queries;
            row.backlog = row.r.p99_ms > kBacklogGrowth * row.half.p99_ms;
        }
        row.meets = row.r.p99_ms <= kP99LimitMs && !row.clamped && !row.backlog;
        rows.push_back(row);

        ServeSetup again;
        std::unique_ptr<runtime::InferenceServer> again_srv;
        set_up(again, again_srv);
        host_round();
    }
    while (step_ms.size() < kMinSteps || (!trace && since(start) < seconds))
        host_round();
    rep.check("repeated_runs_bitwise_equal", repeats_equal);
    rep.items(attempted, attempted - served);

    double max_qps = 0.0;
    const SweepRow* ref = nullptr;
    for (const SweepRow& r : rows) {
        std::printf("# qps %6.0f: p50 %.4f ms, p99 %.4f ms, max %.3f ms%s%s%s\n",
                    r.qps, r.r.p50_ms, r.r.p99_ms, r.r.max_ms,
                    r.half.queries
                        ? (" | half-length stream p99 " +
                           std::to_string(r.half.p99_ms)).c_str()
                        : "",
                    r.clamped ? " [histogram clamped]" : "",
                    r.backlog ? " [backlog grows]" : "");
        if (r.meets) max_qps = std::max(max_qps, r.qps);
        if (r.qps == kReferenceQps) ref = &r;
    }
    rep.check("reference_rate_meets_limit", ref != nullptr && ref->meets);
    rep.check("reference_run_matches_sweep",
              ref != nullptr && same_serve(ref->r, reference));
    rep.check("cache_engages", reference.hit_rate > 0.0);

    // Determinism spot-check at pool width 1 (server build included).
    const unsigned width = num_threads();
    set_num_threads(1);
    const runtime::InferenceServer one(
        su.data, su.parts, serve_config(s, kReferenceQps, kStepQueries));
    const runtime::ServeResult r1 = one.run();
    set_num_threads(width);
    rep.check("pool_width_1_bitwise_equal", same_serve(r1, first_step));

    const double run_s = median(ref_run_s);
    std::printf("# serve: max qps %.0f (p99 <= %.1f ms), reference %.0f qps: "
                "%.0f queries per host second over %zu reference runs\n",
                max_qps, kP99LimitMs, kReferenceQps, kSweepQueries / run_s,
                ref_run_s.size());
    if (!trace) {
        rep.metric("setup_s", median(setups), "s");
        rep.metric("host.step_ms.p50", quantile(step_ms, 0.5), "ms");
        rep.metric("host.step_ms.p90", quantile(step_ms, 0.9), "ms");
        rep.metric("host.run_s", run_s, "s");
        rep.metric("host.peak_rss_mb", peak_rss_mb(), "MB");
        rep.metric("model.comm_mb", reference.halo_mb * 1000.0 / kSweepQueries,
                   "MB");
        rep.metric("model.latency_ms.p50", reference.p50_ms, "ms");
        rep.metric("model.latency_ms.tail", reference.p99_ms, "ms");
        rep.metric("model.quality", reference.hit_rate, "ratio");
        return;
    }
    const partition::PartitionQuality pq =
        partition::evaluate(su.data.graph, su.parts);
    const double stages_s = su.dataset_s + su.partition_s + su.build_s;
    rep.metric("graph.make_dataset_s", su.dataset_s, "s");
    rep.metric("partition.make_partitioning_s", su.partition_s, "s");
    rep.metric("partition.cut_fraction", pq.cut_fraction, "ratio");
    rep.metric("partition.boundary_fraction",
               static_cast<double>(pq.boundary_nodes) /
                   static_cast<double>(su.data.graph.num_nodes()),
               "ratio");
    rep.metric("dist.plans",
               static_cast<double>(server->context().plans().size()), "count");
    rep.metric("runtime.server_build_s", su.build_s, "s");
    rep.metric("runtime.serve_run_s", run_s, "s");
    rep.metric("runtime.hit_rate", reference.hit_rate, "ratio");
    rep.metric("runtime.halo_mb", reference.halo_mb, "MB");
    rep.metric("runtime.mean_batch", reference.mean_batch, "count");
    rep.metric("runtime.batches", static_cast<double>(reference.batches), "count");
    rep.metric("runtime.max_qps", max_qps, "1/s");
    // Serving runs no wrapper, so the traced run is the untraced one; the
    // covered "epoch" is the kept set-up, split into its three stages.
    rep.metric("obs.trace_overhead_pct", 0.0, "%");
    rep.metric("obs.epoch_coverage", stages_s / setups.front(), "ratio");
}

// -------------------------------------------------------------------- main

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <train-dense|train-exchange|"
                 "sample-train|serve> --seed <n> --seconds <s> --trace <0|1>\n");
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workload") == 0) workload = value();
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(argv[i], "--seconds") == 0)
            seconds = std::atof(value());
        else if (std::strcmp(argv[i], "--trace") == 0)
            trace = std::atoi(value()) != 0;
        else usage();
    }
    const Workload* w = nullptr;
    for (const Workload& c : kWorkloads)
        if (workload == c.name) w = &c;
    if (w == nullptr) usage();

    // Pinned whatever SCGNN_THREADS / SCGNN_KERNELS say, and recorded.
    set_num_threads(kPoolWidth);
    tensor::set_kernel_path(tensor::KernelPath::kScalar);
    const Seeds s(seed);
    char prov[512];
    std::snprintf(prov, sizeof prov,
                  "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                  "\"build_type\": \"%s\", \"native\": %d, \"kernels\": \"%s\", "
                  "\"pool_width\": %u, \"nproc\": %u}",
                  w->name, static_cast<unsigned long long>(seed), trace ? 1 : 0,
                  E2E_BUILD_TYPE, E2E_NATIVE,
                  tensor::kernel_path_name(tensor::kernel_path()), num_threads(),
                  std::thread::hardware_concurrency());
    std::printf("# e2e_bench %s\n", prov);

    Report rep;
    if (w->serve) run_serve(rep, *w, s, seconds, trace);
    else if (trace) run_training_traced(rep, *w, s);
    else run_training(rep, *w, s, seconds);
    if (trace)
        rep.fill_missing(kLayerMetrics);
    else
        rep.metric("ok_frac",
                   static_cast<double>(rep.attempted() - rep.failed()) /
                       static_cast<double>(rep.attempted()),
                   "ratio");
    rep.print_table();
    rep.print_json(prov);
    return 0;
}
