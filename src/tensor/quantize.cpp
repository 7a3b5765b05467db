#include "scgnn/tensor/quantize.hpp"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace scgnn::tensor {
namespace {

constexpr bool valid_bits(int bits) {
    return bits == 4 || bits == 8 || bits == 16;
}

/// Per-tensor affine parameters plus the code range they map onto.
struct Affine {
    float scale = 1.0f;
    std::int32_t zero_point = 0;
    std::int32_t levels = 0;
};

/// The data range as the left-to-right scan lo = min(lo, v), hi = max(hi, v)
/// from flat[0] sees it. Four lanes seeded with flat[0] give the same
/// answer: minps/maxps select exactly like std::min/std::max (a NaN
/// candidate never wins, a NaN seed never loses), and the order of the
/// finite candidates can only change the sign of a zero extreme, which
/// affine_params() never observes.
void scan_range(std::span<const float> flat, float& lo, float& hi) {
    lo = hi = 0.0f;
    if (flat.empty()) return;
    lo = hi = flat[0];
    std::size_t i = 0;
    const std::size_t n = flat.size();
#if defined(__SSE2__)
    if (n >= 4) {
        __m128 vlo = _mm_set1_ps(flat[0]);
        __m128 vhi = vlo;
        for (; i + 4 <= n; i += 4) {
            const __m128 v = _mm_loadu_ps(flat.data() + i);
            vlo = _mm_min_ps(v, vlo);  // (v < lo) ? v : lo
            vhi = _mm_max_ps(v, vhi);  // (v > hi) ? v : hi
        }
        alignas(16) float l[4], h[4];
        _mm_store_ps(l, vlo);
        _mm_store_ps(h, vhi);
        for (int k = 0; k < 4; ++k) {
            lo = std::min(lo, l[k]);
            hi = std::max(hi, h[k]);
        }
    }
#endif
    for (; i < n; ++i) {
        lo = std::min(lo, flat[i]);
        hi = std::max(hi, flat[i]);
    }
}

Affine affine_params(std::span<const float> flat, int bits) {
    float lo = 0.0f, hi = 0.0f;
    scan_range(flat, lo, hi);
    // The affine range must contain zero so the zero-point stays inside
    // [0, levels] (same adjustment torch.quantize_per_tensor applies);
    // otherwise constant tensors far from zero clamp catastrophically.
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    Affine a;
    a.levels = static_cast<std::int32_t>((1u << bits) - 1u);
    float range = hi - lo;
    if (range <= 0.0f) range = 1.0f;  // constant tensor: any scale works
    a.scale = range / static_cast<float>(a.levels);
    a.zero_point = static_cast<std::int32_t>(
        detail::round_half_away(-lo / a.scale));
    a.zero_point = std::clamp<std::int32_t>(a.zero_point, 0, a.levels);
    return a;
}

std::uint32_t encode(float v, const Affine& a) noexcept {
    const long code = detail::round_half_away(v / a.scale) + a.zero_point;
    return static_cast<std::uint32_t>(
        std::clamp<long>(code, 0, static_cast<long>(a.levels)));
}

float decode(std::uint32_t code, const Affine& a) noexcept {
    return a.scale * (static_cast<float>(static_cast<std::int64_t>(code) -
                                         a.zero_point));
}

} // namespace

QuantizedTensor quantize_per_tensor(const Matrix& m, int bits) {
    SCGNN_CHECK(valid_bits(bits), "supported bit-widths are 4, 8 and 16");
    const auto flat = m.flat();
    const Affine a = affine_params(flat, bits);
    QuantizedTensor q;
    q.rows = m.rows();
    q.cols = m.cols();
    q.bits = bits;
    q.scale = a.scale;
    q.zero_point = a.zero_point;

    const std::size_t n = flat.size();
    if (bits == 4) {
        q.payload.assign((n + 1) / 2, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code = encode(flat[i], a);
            if (i % 2 == 0)
                q.payload[i / 2] = static_cast<std::uint8_t>(code);
            else
                q.payload[i / 2] |= static_cast<std::uint8_t>(code << 4);
        }
    } else if (bits == 8) {
        q.payload.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            q.payload[i] = static_cast<std::uint8_t>(encode(flat[i], a));
    } else {  // 16
        q.payload.resize(n * 2);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code = encode(flat[i], a);
            q.payload[i * 2] = static_cast<std::uint8_t>(code & 0xff);
            q.payload[i * 2 + 1] = static_cast<std::uint8_t>(code >> 8);
        }
    }
    return q;
}

void quantize_roundtrip_into(const Matrix& in, int bits, Matrix& out) {
    SCGNN_CHECK(valid_bits(bits), "supported bit-widths are 4, 8 and 16");
    const Affine a = affine_params(in.flat(), bits);
    if (&out != &in) out.reshape_zero(in.rows(), in.cols());
    const std::size_t n = in.size();
    const float* src = in.data();
    float* dst = out.data();
    std::size_t i = 0;
#if defined(__SSE2__)
    // Lane-wise the scalar encode/decode: the same IEEE divide, truncate,
    // exact fraction compare, integer clamp and multiply, so every lane is
    // bitwise the scalar result. A quad holding a NaN or a |v/scale| ≥ 2^22
    // (where cvttps2dq saturates) goes through the scalar std::lround path.
    const __m128 vscale = _mm_set1_ps(a.scale);
    const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    const __m128 limit = _mm_set1_ps(0x1p22f);
    const __m128 half = _mm_set1_ps(0.5f);
    const __m128 neg_half = _mm_set1_ps(-0.5f);
    const __m128i vzp = _mm_set1_epi32(a.zero_point);
    const __m128i vlevels = _mm_set1_epi32(a.levels);
    const __m128i vzero = _mm_setzero_si128();
    for (; i + 4 <= n; i += 4) {
        const __m128 x = _mm_div_ps(_mm_loadu_ps(src + i), vscale);
        if (_mm_movemask_ps(_mm_cmplt_ps(_mm_and_ps(x, abs_mask), limit)) !=
            0xf) {
            for (std::size_t k = i; k < i + 4; ++k)
                dst[k] = decode(encode(src[k], a), a);
            continue;
        }
        __m128i r = _mm_cvttps_epi32(x);
        const __m128 frac = _mm_sub_ps(x, _mm_cvtepi32_ps(r));
        // A true compare lane is all ones (−1): subtracting it adds one.
        r = _mm_sub_epi32(r, _mm_castps_si128(_mm_cmpge_ps(frac, half)));
        r = _mm_add_epi32(r, _mm_castps_si128(_mm_cmple_ps(frac, neg_half)));
        __m128i code = _mm_add_epi32(r, vzp);
        code = _mm_andnot_si128(_mm_cmpgt_epi32(vzero, code), code);
        const __m128i over = _mm_cmpgt_epi32(code, vlevels);
        code = _mm_or_si128(_mm_and_si128(over, vlevels),
                            _mm_andnot_si128(over, code));
        const __m128 deq =
            _mm_mul_ps(vscale, _mm_cvtepi32_ps(_mm_sub_epi32(code, vzp)));
        _mm_storeu_ps(dst + i, deq);
    }
#endif
    for (; i < n; ++i) dst[i] = decode(encode(src[i], a), a);
}

Matrix dequantize(const QuantizedTensor& q) {
    SCGNN_CHECK(valid_bits(q.bits), "supported bit-widths are 4, 8 and 16");
    Matrix m(q.rows, q.cols);
    auto flat = m.flat();
    const std::size_t n = flat.size();
    Affine a;
    a.scale = q.scale;
    a.zero_point = q.zero_point;
    if (q.bits == 4) {
        SCGNN_CHECK(q.payload.size() == (n + 1) / 2,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t byte = q.payload[i / 2];
            const std::uint32_t code = (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
            flat[i] = decode(code, a);
        }
    } else if (q.bits == 8) {
        SCGNN_CHECK(q.payload.size() == n,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) flat[i] = decode(q.payload[i], a);
    } else {
        SCGNN_CHECK(q.payload.size() == n * 2,
                    "payload size inconsistent with shape");
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t code =
                static_cast<std::uint32_t>(q.payload[i * 2]) |
                (static_cast<std::uint32_t>(q.payload[i * 2 + 1]) << 8);
            flat[i] = decode(code, a);
        }
    }
    return m;
}

float quantization_step(const QuantizedTensor& q) noexcept { return q.scale; }

} // namespace scgnn::tensor
