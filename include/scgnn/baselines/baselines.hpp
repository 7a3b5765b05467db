#pragma once
/// \file baselines.hpp
/// \brief The three SOTA traffic-reduction baselines the paper compares
///        against (Fig. 1(a)): boundary-node sampling (BNS-GCN [16]),
///        quantification (AdaQP [15]) and delayed transmission
///        (Dorylus/DistGNN [12, 8]). Each decays individual connections
///        along one dimension — existence, bit-width, or timing — which is
///        precisely the per-edge Pareto frontier SC-GNN breaks.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "scgnn/common/rng.hpp"
#include "scgnn/dist/compressor.hpp"

namespace scgnn::baselines {

/// Boundary-node sampling configuration.
struct SamplingConfig {
    double rate = 0.1;        ///< fraction of boundary nodes kept per epoch
    std::uint64_t seed = 7;   ///< per-epoch sampling stream
};

/// BNS-GCN-style sampling: each epoch keeps a random `rate` fraction of
/// every plan's boundary nodes, rescales the survivors by 1/rate (unbiased
/// aggregation in expectation) and drops the rest. The same per-epoch mask
/// is used by every layer and by the gradient exchange, as in BNS-GCN.
/// The per-epoch mask rebuild is performed honestly — it is the "recreate a
/// new adjacency matrix each round" overhead §5.2 attributes to sampling.
class SamplingCompressor final : public dist::BoundaryCompressor {
public:
    explicit SamplingCompressor(SamplingConfig config = {});

    [[nodiscard]] std::string name() const override { return "sampling"; }
    void setup(const dist::DistContext& ctx) override;
    void begin_epoch(std::uint64_t epoch) override;

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_rows(const dist::DistContext& ctx,
                                              std::size_t plan_idx, int layer,
                                              const tensor::Matrix& grad_in,
                                              tensor::Matrix& grad_out) override;

    /// Scale the keep rate to `fidelity` × the configured base rate
    /// (floored at 1e-3 so some boundary rows always survive). fidelity 1
    /// restores the base rate exactly; the next epoch's masks use the new
    /// rate.
    void apply_rate(double fidelity) override;

    /// The configured base rate.
    [[nodiscard]] double rate() const noexcept { return cfg_.rate; }

    /// The rate in force after the last apply_rate().
    [[nodiscard]] double effective_rate() const noexcept { return rate_eff_; }

private:
    /// Per-plan row mask of the current epoch (built lazily per epoch).
    struct Mask {
        std::vector<char> keep;           ///< one flag per plan row
        std::uint64_t kept_edges = 0;     ///< per-edge wire cost of survivors
    };
    const Mask& mask_for(const dist::DistContext& ctx, std::size_t plan_idx);

    SamplingConfig cfg_;
    double rate_eff_;  ///< rate after the schedule's fidelity scaling
    Rng rng_;
    std::uint64_t epoch_ = 0;
    std::vector<Mask> masks_;
    std::vector<std::uint64_t> mask_epoch_;  ///< epoch+1 each mask was built for
};

/// Quantification configuration.
struct QuantConfig {
    int bits = 8;  ///< 4, 8 or 16
};

/// AdaQP-style per-tensor quantisation of every exchanged row block, for
/// both embeddings and gradients: the receiver gets the block rounded to
/// `bits`-bit affine codes and dequantised. No payload is packed — the
/// fused quantise→dequantise pass (tensor::quantize_roundtrip_into)
/// computes the reconstruction directly, and the wire bytes are modelled
/// as num_edges · f · bits/8 plus the scale and zero-point.
class QuantCompressor final : public dist::BoundaryCompressor {
public:
    explicit QuantCompressor(QuantConfig config = {});

    [[nodiscard]] std::string name() const override { return "quant"; }

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_rows(const dist::DistContext& ctx,
                                              std::size_t plan_idx, int layer,
                                              const tensor::Matrix& grad_in,
                                              tensor::Matrix& grad_out) override;

    /// Snap to the widest supported width not above `fidelity` × the base
    /// bit budget: the smallest of {4, 8, 16} that is ≥ fidelity · bits,
    /// clamped to the configured base (fidelity 1 restores it exactly).
    void apply_rate(double fidelity) override;

    /// The configured base bit-width.
    [[nodiscard]] int bits() const noexcept { return cfg_.bits; }

    /// The bit-width in force after the last apply_rate().
    [[nodiscard]] int effective_bits() const noexcept { return bits_eff_; }

private:
    QuantConfig cfg_;
    int bits_eff_;  ///< bit-width after the schedule's fidelity scaling
};

/// Delayed-transmission configuration.
struct DelayConfig {
    std::uint32_t period = 4;  ///< transmit every `period`-th epoch (τ)
};

/// Dorylus-style delayed transmission: boundary rows actually cross the
/// wire only on epochs divisible by τ; in between, receivers aggregate the
/// cached (stale) copy and gradients reuse the cached reverse message. The
/// cache read/write churn is real memory traffic and is measured as
/// compute (the memory-wall behaviour §5.2 describes).
class DelayCompressor final : public dist::BoundaryCompressor {
public:
    explicit DelayCompressor(DelayConfig config = {});

    [[nodiscard]] std::string name() const override { return "delay"; }
    void setup(const dist::DistContext& ctx) override;
    void begin_epoch(std::uint64_t epoch) override;

    [[nodiscard]] std::uint64_t forward_rows(const dist::DistContext& ctx,
                                             std::size_t plan_idx, int layer,
                                             const tensor::Matrix& src,
                                             tensor::Matrix& out) override;
    [[nodiscard]] std::uint64_t backward_rows(const dist::DistContext& ctx,
                                              std::size_t plan_idx, int layer,
                                              const tensor::Matrix& grad_in,
                                              tensor::Matrix& grad_out) override;

    /// The staleness period τ in force.
    [[nodiscard]] std::uint32_t period() const noexcept { return cfg_.period; }

private:
    [[nodiscard]] bool transmit_epoch() const noexcept {
        return epoch_ % cfg_.period == 0;
    }
    static constexpr int kMaxLayers = 8;

    DelayConfig cfg_;
    std::uint64_t epoch_ = 0;
    std::vector<tensor::Matrix> fwd_cache_;  ///< [plan × layer]
    std::vector<tensor::Matrix> bwd_cache_;  ///< [plan × layer]
};

} // namespace scgnn::baselines
