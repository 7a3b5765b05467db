#pragma once
/// \file quantize.hpp
/// \brief Per-tensor affine quantisation, the mechanism behind the paper's
///        "quantification" baseline [15] (AdaQP-style): embeddings/gradients
///        are packed to low bit-width before crossing partitions and
///        dequantised on arrival. Mirrors torch.quantize_per_tensor
///        semantics (scale + zero-point, round-to-nearest).

#include <cmath>
#include <cstdint>
#include <vector>

#include "scgnn/tensor/matrix.hpp"

namespace scgnn::tensor {

/// A quantised tensor: packed payload plus the affine parameters needed to
/// reconstruct. `bits` ∈ {4, 8, 16}; 16 means raw IEEE half-precision-like
/// truncation is NOT used — 16-bit affine quantisation keeps the code path
/// uniform.
struct QuantizedTensor {
    std::size_t rows = 0;
    std::size_t cols = 0;
    int bits = 8;
    float scale = 1.0f;       ///< dequant: value = scale * (q - zero_point)
    std::int32_t zero_point = 0;
    std::vector<std::uint8_t> payload;  ///< bit-packed codes, row-major

    /// Bytes that actually cross the wire (payload + the two parameters).
    [[nodiscard]] std::size_t wire_bytes() const noexcept {
        return payload.size() + sizeof(scale) + sizeof(zero_point);
    }
};

/// Quantise a matrix to `bits`-bit codes with per-tensor affine parameters
/// chosen from the min/max of the data (symmetric range degenerate cases —
/// constant tensors — are handled). Requires bits ∈ {4, 8, 16}.
[[nodiscard]] QuantizedTensor quantize_per_tensor(const Matrix& m, int bits);

/// Reconstruct the (lossy) matrix from a quantised tensor.
[[nodiscard]] Matrix dequantize(const QuantizedTensor& q);

/// Fused quantise→dequantise: writes exactly the bits of
/// dequantize(quantize_per_tensor(in, bits)) into `out` (reshaped in place,
/// so pooled storage is reused) without building the packed payload. This
/// is what the exchange path needs — the receiver-side reconstruction —
/// and it is allocation-free once `out` has the capacity. One SSE2 body
/// where available (DESIGN.md §10: bitwise equal to the scalar path on
/// every KernelPath), scalar otherwise. `out` may alias `in`.
void quantize_roundtrip_into(const Matrix& in, int bits, Matrix& out);

namespace detail {

/// Round to nearest with ties away from zero: bitwise the value
/// std::lround returns, for every float. Below 2^22 the fraction
/// x − trunc(x) is exact, so comparing it with ±0.5 decides the tie
/// exactly; larger magnitudes, infinities and NaN defer to std::lround.
[[nodiscard]] inline long round_half_away(float x) noexcept {
    if (!(std::fabs(x) < 0x1p22f)) return std::lround(x);
    long i = static_cast<long>(x);
    const float frac = x - static_cast<float>(i);
    if (frac >= 0.5f)
        ++i;
    else if (frac <= -0.5f)
        --i;
    return i;
}

} // namespace detail

/// Worst-case absolute reconstruction error of the given quantisation, i.e.
/// half a quantisation step. Useful for test bounds.
[[nodiscard]] float quantization_step(const QuantizedTensor& q) noexcept;

} // namespace scgnn::tensor
