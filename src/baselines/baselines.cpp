#include "scgnn/baselines/baselines.hpp"

#include <algorithm>

#include "scgnn/tensor/quantize.hpp"

namespace scgnn::baselines {

using dist::DistContext;
using dist::PairPlan;
using tensor::Matrix;

// ---------------------------------------------------------------- Sampling

SamplingCompressor::SamplingCompressor(SamplingConfig config)
    : cfg_(config), rate_eff_(config.rate), rng_(config.seed) {
    SCGNN_CHECK(cfg_.rate > 0.0 && cfg_.rate <= 1.0,
                "sampling rate must be in (0, 1]");
}

void SamplingCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    rate_eff_ = std::max(cfg_.rate * fidelity, 1e-3);
}

void SamplingCompressor::setup(const DistContext& ctx) {
    masks_.assign(ctx.plans().size(), {});
    mask_epoch_.assign(ctx.plans().size(), 0);
}

void SamplingCompressor::begin_epoch(std::uint64_t epoch) { epoch_ = epoch; }

const SamplingCompressor::Mask& SamplingCompressor::mask_for(
    const DistContext& ctx, std::size_t plan_idx) {
    SCGNN_CHECK(plan_idx < masks_.size(), "plan index out of range (setup?)");
    if (mask_epoch_[plan_idx] == epoch_ + 1) return masks_[plan_idx];
    // Rebuild the epoch's boundary sample for this plan — the per-round
    // adjacency-refresh work that makes sampling expensive at scale.
    const PairPlan& plan = ctx.plans()[plan_idx];
    Mask& m = masks_[plan_idx];
    m.keep.assign(plan.num_rows(), 0);
    m.kept_edges = 0;
    for (std::uint32_t r = 0; r < plan.num_rows(); ++r) {
        if (rng_.bernoulli(rate_eff_)) {
            m.keep[r] = 1;
            m.kept_edges += plan.dbg.out_degree(r);
        }
    }
    mask_epoch_[plan_idx] = epoch_ + 1;
    return m;
}

std::uint64_t SamplingCompressor::forward_rows(const DistContext& ctx,
                                               std::size_t plan_idx,
                                               int /*layer*/, const Matrix& src,
                                               Matrix& out) {
    const Mask& m = mask_for(ctx, plan_idx);
    SCGNN_CHECK(src.rows() == m.keep.size(), "source row count mismatch");
    out = Matrix(src.rows(), src.cols());
    const float scale = static_cast<float>(1.0 / rate_eff_);
    for (std::size_t r = 0; r < src.rows(); ++r) {
        if (!m.keep[r]) continue;
        const auto s = src.row(r);
        auto d = out.row(r);
        for (std::size_t c = 0; c < s.size(); ++c) d[c] = s[c] * scale;
    }
    return m.kept_edges * src.cols() * sizeof(float);
}

std::uint64_t SamplingCompressor::backward_rows(const DistContext& ctx,
                                                std::size_t plan_idx,
                                                int /*layer*/,
                                                const Matrix& grad_in,
                                                Matrix& grad_out) {
    const Mask& m = mask_for(ctx, plan_idx);
    SCGNN_CHECK(grad_in.rows() == m.keep.size(), "gradient row count mismatch");
    grad_out = Matrix(grad_in.rows(), grad_in.cols());
    const float scale = static_cast<float>(1.0 / rate_eff_);
    for (std::size_t r = 0; r < grad_in.rows(); ++r) {
        if (!m.keep[r]) continue;
        const auto s = grad_in.row(r);
        auto d = grad_out.row(r);
        for (std::size_t c = 0; c < s.size(); ++c) d[c] = s[c] * scale;
    }
    return m.kept_edges * grad_in.cols() * sizeof(float);
}

// ------------------------------------------------------------------- Quant

QuantCompressor::QuantCompressor(QuantConfig config)
    : cfg_(config), bits_eff_(config.bits) {
    SCGNN_CHECK(cfg_.bits == 4 || cfg_.bits == 8 || cfg_.bits == 16,
                "supported bit-widths are 4, 8 and 16");
}

void QuantCompressor::apply_rate(double fidelity) {
    SCGNN_CHECK(fidelity > 0.0 && fidelity <= 1.0,
                "rate fidelity must be in (0, 1]");
    const double target = fidelity * cfg_.bits;
    int eff = cfg_.bits;
    for (const int b : {4, 8, 16}) {
        if (b >= target) {
            eff = b;
            break;
        }
    }
    bits_eff_ = std::min(eff, cfg_.bits);
}

namespace {

std::uint64_t quant_roundtrip(int bits, std::uint64_t edges, const Matrix& in,
                              Matrix& out) {
    // The receiver sees dequantize(quantize_per_tensor(in)); the fused
    // round-trip writes exactly those bits into `out`'s own storage.
    tensor::quantize_roundtrip_into(in, bits, out);
    // Per-edge wire model at the reduced width, plus the affine parameters.
    return edges * in.cols() * static_cast<std::uint64_t>(bits) / 8 +
           sizeof(float) + sizeof(std::int32_t);
}

} // namespace

std::uint64_t QuantCompressor::forward_rows(const DistContext& ctx,
                                            std::size_t plan_idx, int /*layer*/,
                                            const Matrix& src, Matrix& out) {
    const PairPlan& plan = ctx.plans()[plan_idx];
    SCGNN_CHECK(src.rows() == plan.num_rows(), "source row count mismatch");
    return quant_roundtrip(bits_eff_, plan.num_edges(), src, out);
}

std::uint64_t QuantCompressor::backward_rows(const DistContext& ctx,
                                             std::size_t plan_idx, int /*layer*/,
                                             const Matrix& grad_in,
                                             Matrix& grad_out) {
    const PairPlan& plan = ctx.plans()[plan_idx];
    SCGNN_CHECK(grad_in.rows() == plan.num_rows(), "gradient row count mismatch");
    return quant_roundtrip(bits_eff_, plan.num_edges(), grad_in, grad_out);
}

// ------------------------------------------------------------------- Delay

DelayCompressor::DelayCompressor(DelayConfig config) : cfg_(config) {
    SCGNN_CHECK(cfg_.period >= 1, "delay period must be at least 1");
}

void DelayCompressor::setup(const DistContext& ctx) {
    fwd_cache_.assign(ctx.plans().size() * kMaxLayers, {});
    bwd_cache_.assign(ctx.plans().size() * kMaxLayers, {});
    epoch_ = 0;
}

void DelayCompressor::begin_epoch(std::uint64_t epoch) { epoch_ = epoch; }

std::uint64_t DelayCompressor::forward_rows(const DistContext& ctx,
                                            std::size_t plan_idx, int layer,
                                            const Matrix& src, Matrix& out) {
    const PairPlan& plan = ctx.plans()[plan_idx];
    SCGNN_CHECK(src.rows() == plan.num_rows(), "source row count mismatch");
    SCGNN_CHECK(layer >= 0 && layer < kMaxLayers, "layer out of range");
    Matrix& cache = fwd_cache_[plan_idx * kMaxLayers + layer];
    if (transmit_epoch() || cache.empty()) {
        cache = src;
        out = src;
        return plan.num_edges() * src.cols() * sizeof(float);
    }
    out = cache;  // stale copy, no wire traffic
    return 0;
}

std::uint64_t DelayCompressor::backward_rows(const DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const Matrix& grad_in,
                                             Matrix& grad_out) {
    const PairPlan& plan = ctx.plans()[plan_idx];
    SCGNN_CHECK(grad_in.rows() == plan.num_rows(), "gradient row count mismatch");
    SCGNN_CHECK(layer >= 0 && layer < kMaxLayers, "layer out of range");
    Matrix& cache = bwd_cache_[plan_idx * kMaxLayers + layer];
    if (transmit_epoch() || cache.empty()) {
        cache = grad_in;
        grad_out = grad_in;
        return plan.num_edges() * grad_in.cols() * sizeof(float);
    }
    grad_out = cache;  // stale gradients, as Dorylus permits
    return 0;
}

} // namespace scgnn::baselines
