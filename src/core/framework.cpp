#include "scgnn/core/framework.hpp"

#include <optional>

#include "scgnn/dist/factory.hpp"
#include "scgnn/tensor/workspace.hpp"

namespace scgnn::core {

const char* to_string(Method m) noexcept {
    switch (m) {
        case Method::kVanilla: return "Vanilla.";
        case Method::kSampling: return "Samp.";
        case Method::kQuant: return "Quant.";
        case Method::kDelay: return "Delay.";
        case Method::kSemantic: return "Ours";
    }
    return "?";
}

const char* method_key(Method m) noexcept {
    switch (m) {
        case Method::kVanilla: return "vanilla";
        case Method::kSampling: return "sampling";
        case Method::kQuant: return "quant";
        case Method::kDelay: return "delay";
        case Method::kSemantic: return "ours";
    }
    return "?";
}

bool parse_method(const std::string& key, Method& out) noexcept {
    for (const Method m : {Method::kVanilla, Method::kSampling, Method::kQuant,
                           Method::kDelay, Method::kSemantic}) {
        if (key == method_key(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

std::vector<Method> all_methods() {
    return {Method::kVanilla, Method::kDelay, Method::kQuant,
            Method::kSampling, Method::kSemantic};
}

std::unique_ptr<dist::BoundaryCompressor> make_compressor(
    const MethodConfig& cfg) {
    dist::CompressorOptions opts;
    opts.sampling = cfg.sampling;
    opts.quant = cfg.quant;
    opts.delay = cfg.delay;
    opts.semantic = cfg.semantic;
    opts.ef = cfg.ef;
    return dist::make_compressor(
        cfg.name.empty() ? method_key(cfg.method) : cfg.name, opts);
}

// ------------------------------------------------------- ComposedCompressor

ComposedCompressor::ComposedCompressor(
    std::vector<std::unique_ptr<dist::BoundaryCompressor>> stages)
    : stages_(std::move(stages)), stage_bytes_(stages_.size(), 0.0) {
    SCGNN_CHECK(!stages_.empty(), "composition needs at least one stage");
    for (const auto& s : stages_)
        SCGNN_CHECK(s != nullptr, "null stage in composition");
}

std::string ComposedCompressor::name() const {
    std::string n = stages_[0]->name();
    for (std::size_t i = 1; i < stages_.size(); ++i) n += "+" + stages_[i]->name();
    return n;
}

void ComposedCompressor::setup(const dist::DistContext& ctx) {
    for (auto& s : stages_) s->setup(ctx);
}

void ComposedCompressor::begin_epoch(std::uint64_t epoch) {
    for (auto& s : stages_) s->begin_epoch(epoch);
}

void ComposedCompressor::set_workspace(tensor::Workspace* ws) {
    ws_ = ws;
    for (auto& s : stages_) s->set_workspace(ws);
}

void ComposedCompressor::apply_rate(double fidelity) {
    for (auto& s : stages_) s->apply_rate(fidelity);
}

std::uint64_t ComposedCompressor::state_bytes(std::uint32_t part) const {
    std::uint64_t bytes = 0;
    for (const auto& s : stages_) bytes += s->state_bytes(part);
    return bytes;
}

template <class Stage>
std::uint64_t ComposedCompressor::chain(bool adjoint, double vanilla_bytes,
                                        const tensor::Matrix& in,
                                        tensor::Matrix& out, Stage&& stage) {
    // Intermediates ping-pong between two pooled buffers (stages keep the
    // row shape) and the last stage writes the caller's `out` in place.
    const std::size_t n = stages_.size();
    std::optional<tensor::Workspace::Lease> ping, pong;
    if (n >= 2) ping.emplace(ws_, in.rows(), in.cols());
    if (n >= 3) pong.emplace(ws_, in.rows(), in.cols());
    const tensor::Matrix* cur = &in;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = adjoint ? n - 1 - k : k;
        tensor::Matrix& next =
            k + 1 == n ? out : (k % 2 == 0 ? ping->get() : pong->get());
        stage_bytes_[i] = static_cast<double>(stage(*stages_[i], *cur, next));
        cur = &next;
    }
    // Stage 0 owns the wire representation (base volume); later stages
    // contribute relative factors, in either direction.
    double bytes = stage_bytes_[0];
    for (std::size_t i = 1; i < n; ++i)
        if (vanilla_bytes > 0.0) bytes *= stage_bytes_[i] / vanilla_bytes;
    return static_cast<std::uint64_t>(bytes);
}

std::uint64_t ComposedCompressor::forward_rows(const dist::DistContext& ctx,
                                               std::size_t plan_idx, int layer,
                                               const tensor::Matrix& src,
                                               tensor::Matrix& out) {
    const dist::PairPlan& plan = ctx.plans()[plan_idx];
    const double vanilla_bytes = static_cast<double>(plan.num_edges()) *
                                 src.cols() * sizeof(float);
    return chain(/*adjoint=*/false, vanilla_bytes, src, out,
                 [&](dist::BoundaryCompressor& s, const tensor::Matrix& in,
                     tensor::Matrix& o) {
                     return s.forward_rows(ctx, plan_idx, layer, in, o);
                 });
}

std::uint64_t ComposedCompressor::backward_rows(const dist::DistContext& ctx,
                                                std::size_t plan_idx, int layer,
                                                const tensor::Matrix& grad_in,
                                                tensor::Matrix& grad_out) {
    const dist::PairPlan& plan = ctx.plans()[plan_idx];
    const double vanilla_bytes = static_cast<double>(plan.num_edges()) *
                                 grad_in.cols() * sizeof(float);
    // Adjoint order: last forward stage first.
    return chain(/*adjoint=*/true, vanilla_bytes, grad_in, grad_out,
                 [&](dist::BoundaryCompressor& s, const tensor::Matrix& in,
                     tensor::Matrix& o) {
                     return s.backward_rows(ctx, plan_idx, layer, in, o);
                 });
}

std::uint64_t ComposedCompressor::forward_subset(
    const dist::DistContext& ctx, std::size_t plan_idx, int layer,
    std::span<const std::uint32_t> rows, const tensor::Matrix& src,
    tensor::Matrix& out) {
    // Request-model vanilla volume: each requested row ships once.
    const double vanilla_bytes =
        static_cast<double>(rows.size()) * src.cols() * sizeof(float);
    return chain(/*adjoint=*/false, vanilla_bytes, src, out,
                 [&](dist::BoundaryCompressor& s, const tensor::Matrix& in,
                     tensor::Matrix& o) {
                     return s.forward_subset(ctx, plan_idx, layer, rows, in, o);
                 });
}

std::uint64_t ComposedCompressor::backward_subset(
    const dist::DistContext& ctx, std::size_t plan_idx, int layer,
    std::span<const std::uint32_t> rows, const tensor::Matrix& grad_in,
    tensor::Matrix& grad_out) {
    const double vanilla_bytes =
        static_cast<double>(rows.size()) * grad_in.cols() * sizeof(float);
    return chain(/*adjoint=*/true, vanilla_bytes, grad_in, grad_out,
                 [&](dist::BoundaryCompressor& s, const tensor::Matrix& in,
                     tensor::Matrix& o) {
                     return s.backward_subset(ctx, plan_idx, layer, rows, in,
                                              o);
                 });
}

// ----------------------------------------------------------------- Pipeline

namespace detail {

namespace {

/// Read grouping figures off a (live or reference) semantic compressor.
void read_grouping_stats(PipelineResult& res, const dist::DistContext& ctx,
                         const SemanticCompressor& sem) {
    res.wire_rows = sem.total_wire_rows();
    std::uint64_t edges_in_groups = 0;
    std::uint32_t groups = 0;
    for (std::size_t pi = 0; pi < ctx.plans().size(); ++pi) {
        const Grouping& g = sem.grouping(pi);
        groups += static_cast<std::uint32_t>(g.groups.size());
        edges_in_groups += g.grouped_edges();
    }
    res.num_groups = groups;
    res.mean_group_size =
        groups == 0 ? 0.0 : static_cast<double>(edges_in_groups) / groups;
}

} // namespace

void fill_semantic_stats(PipelineResult& res, const dist::DistContext& ctx,
                         const MethodConfig& method,
                         const dist::BoundaryCompressor* comp) {
    res.cross_edges = ctx.total_cross_edges();
    // Static semantic statistics of this partitioning (cheap to recompute
    // when the training method was a baseline).
    if (method.plain_semantic() && comp != nullptr) {
        const auto* sem = dynamic_cast<const SemanticCompressor*>(comp);
        SCGNN_ASSERT(sem != nullptr,
                     "semantic method without SemanticCompressor");
        read_grouping_stats(res, ctx, *sem);
    } else {
        SemanticCompressor sem(method.semantic);
        sem.setup(ctx);
        read_grouping_stats(res, ctx, sem);
    }
    res.compression_ratio =
        res.wire_rows == 0
            ? 1.0
            : static_cast<double>(res.cross_edges) /
                  static_cast<double>(res.wire_rows);
}

} // namespace detail

PipelineResult run_pipeline(const graph::Dataset& data,
                            const PipelineConfig& cfg) {
    const partition::Partitioning parts = partition::make_partitioning(
        cfg.algo, data.graph, cfg.num_parts, cfg.partition_seed);

    PipelineResult res;
    res.partition_quality = partition::evaluate(data.graph, parts);

    const std::unique_ptr<dist::BoundaryCompressor> comp =
        make_compressor(cfg.method);
    res.train =
        dist::detail::train_full(data, parts, cfg.model, cfg.train, *comp);

    const dist::DistContext ctx(data, parts, cfg.train.norm);
    detail::fill_semantic_stats(res, ctx, cfg.method, comp.get());
    return res;
}

} // namespace scgnn::core
