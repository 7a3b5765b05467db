// Unit tests for per-tensor affine quantisation (the Quant baseline's
// mechanism), including parameterised error-bound properties per bit-width,
// and the bitwise contract of the fused quantise→dequantise round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "scgnn/tensor/quantize.hpp"

namespace scgnn::tensor {
namespace {

class QuantizeBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBits, RoundTripErrorBoundedByHalfStep) {
    const int bits = GetParam();
    Rng rng(bits);
    const Matrix m = Matrix::randn(20, 16, rng, 0.0f, 3.0f);
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), quantization_step(q) * 0.5f + 1e-6f);
}

TEST_P(QuantizeBits, WireBytesShrinkWithBitWidth) {
    const int bits = GetParam();
    Rng rng(1);
    const Matrix m = Matrix::randn(8, 8, rng);
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const std::size_t expected_payload = (64 * bits + 7) / 8;
    EXPECT_EQ(q.payload.size(), expected_payload);
    EXPECT_EQ(q.wire_bytes(), expected_payload + 8);
}

TEST_P(QuantizeBits, ExtremesAreRepresentedExactly) {
    const int bits = GetParam();
    Matrix m(1, 4, std::vector<float>{-2.0f, -1.0f, 1.0f, 2.0f});
    const QuantizedTensor q = quantize_per_tensor(m, bits);
    const Matrix back = dequantize(q);
    // min and max of the tensor define the affine range → exact to one step.
    EXPECT_NEAR(back(0, 0), -2.0f, q.scale * 0.51f);
    EXPECT_NEAR(back(0, 3), 2.0f, q.scale * 0.51f);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, QuantizeBits, ::testing::Values(4, 8, 16));

TEST(Quantize, ConstantTensorSurvives) {
    Matrix m(3, 3, 5.0f);
    const QuantizedTensor q = quantize_per_tensor(m, 8);
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), q.scale * 0.5f + 1e-6f);
}

TEST(Quantize, ZeroTensorIsExact) {
    Matrix m(2, 2);
    const Matrix back = dequantize(quantize_per_tensor(m, 4));
    EXPECT_LE(max_abs_diff(m, back), 1.0f / 15.0f);
}

TEST(Quantize, EmptyTensor) {
    Matrix m;
    const QuantizedTensor q = quantize_per_tensor(m, 8);
    EXPECT_EQ(q.payload.size(), 0u);
    const Matrix back = dequantize(q);
    EXPECT_TRUE(back.empty());
}

TEST(Quantize, RejectsUnsupportedBits) {
    Matrix m(1, 1);
    EXPECT_THROW((void)quantize_per_tensor(m, 3), Error);
    EXPECT_THROW((void)quantize_per_tensor(m, 32), Error);
}

TEST(Quantize, DequantizeValidatesPayload) {
    Matrix m(2, 2, 1.0f);
    QuantizedTensor q = quantize_per_tensor(m, 8);
    q.payload.pop_back();
    EXPECT_THROW((void)dequantize(q), Error);
}

TEST(Quantize, HigherBitsLowerError) {
    Rng rng(9);
    const Matrix m = Matrix::randn(30, 30, rng, 0.0f, 2.0f);
    const float e4 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 4)));
    const float e8 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 8)));
    const float e16 = max_abs_diff(m, dequantize(quantize_per_tensor(m, 16)));
    EXPECT_GT(e4, e8);
    EXPECT_GT(e8, e16);
}

TEST(Quantize, OddElementCountPacks4Bit) {
    Matrix m(1, 5, std::vector<float>{0, 1, 2, 3, 4});
    const QuantizedTensor q = quantize_per_tensor(m, 4);
    EXPECT_EQ(q.payload.size(), 3u);  // ceil(5/2)
    const Matrix back = dequantize(q);
    EXPECT_LE(max_abs_diff(m, back), q.scale * 0.5f + 1e-6f);
}

// --------------------------------------------- fused round-trip, bitwise

/// The fused pass against the two-step reference, compared as raw bits so
/// NaN payloads and signed zeros count.
void expect_roundtrip_bitwise(const Matrix& in, int bits) {
    const Matrix ref = dequantize(quantize_per_tensor(in, bits));
    Matrix got;
    quantize_roundtrip_into(in, bits, got);
    ASSERT_EQ(got.rows(), ref.rows());
    ASSERT_EQ(got.cols(), ref.cols());
    if (ref.size() == 0) return;
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "fused round-trip differs from dequantize(quantize_per_tensor) at "
        << bits << " bits, " << in.rows() << "x" << in.cols();
}

Matrix row_of(std::vector<float> v) {
    const std::size_t n = v.size();
    return Matrix(1, n, std::move(v));
}

/// Every half-step between lo and lo + levels·scale: with a power-of-two
/// scale each v/scale is an exact .5 tie (or an integer).
Matrix tie_tensor(int bits, float scale) {
    const std::int32_t levels = (1 << bits) - 1;
    const float lo = -static_cast<float>((levels + 1) / 2) * scale;
    std::vector<float> v;
    for (std::int32_t k = 0; k <= 2 * levels; ++k)
        v.push_back(lo + static_cast<float>(k) * 0.5f * scale);
    return row_of(std::move(v));
}

class RoundTripBits : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripBits, ExactTiesMatchReference) {
    const int bits = GetParam();
    for (const float scale : {1.0f, 0.5f, 0.125f, 4.0f})
        expect_roundtrip_bitwise(tie_tensor(bits, scale), bits);
}

TEST_P(RoundTripBits, DegenerateTensorsMatchReference) {
    const int bits = GetParam();
    Rng rng(40 + bits);
    expect_roundtrip_bitwise(Matrix(3, 3, 5.0f), bits);      // constant
    expect_roundtrip_bitwise(Matrix(3, 3, -2.5f), bits);     // constant < 0
    expect_roundtrip_bitwise(Matrix(4, 5), bits);            // all zero
    expect_roundtrip_bitwise(Matrix(), bits);                // empty
    expect_roundtrip_bitwise(Matrix(0, 7), bits);            // no rows
    Matrix pos = Matrix::randn(6, 7, rng);
    for (float& x : pos.flat()) x = std::fabs(x) + 1.0f;     // all positive
    expect_roundtrip_bitwise(pos, bits);
    expect_roundtrip_bitwise(row_of({0.0f, -0.0f, 0.0f, -0.0f, 1.0f}), bits);
    // Lengths around the 4-lane body: tail-only, body + every tail length.
    for (std::size_t n = 1; n <= 13; ++n)
        expect_roundtrip_bitwise(Matrix::randn(1, n, rng, 0.5f, 3.0f), bits);
}

TEST_P(RoundTripBits, NonFiniteAndExtremeInputsMatchReference) {
    const int bits = GetParam();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const std::vector<std::vector<float>> cases = {
        {nan, 1.0f, -2.0f, 3.0f, 0.5f},           // NaN seeds the range
        {1.0f, nan, -2.0f, 3.0f, 0.5f, 7.0f},     // NaN inside a quad
        {1.0f, -2.0f, 3.0f, 0.5f, 2.0f, nan},     // NaN in the tail
        {-nan, -nan, -nan, -nan},
        {inf, 1.0f, -1.0f, 0.25f, 2.0f},
        {-inf, 1.0f, -1.0f, 0.25f, 2.0f},
        {inf, -inf, 1.0f, 0.0f, 3.0f},
        {1e30f, -1e30f, 1.0f, -1.0f, 5e29f},
        {3e38f, -3e38f, 1.0f, -1.0f, 0.0f},       // range overflows to inf
        {3e38f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f},
        {tiny, 2.0f * tiny, -tiny, 0.0f, 3.0f * tiny},  // scale underflows
        {1e-40f, -1e-40f, 1e-41f, 0.0f},
    };
    for (const auto& c : cases) expect_roundtrip_bitwise(row_of(c), bits);
}

TEST_P(RoundTripBits, RandomTensorsMatchReference) {
    const int bits = GetParam();
    Rng rng(7 * bits);
    for (int t = 0; t < 400; ++t) {
        const std::size_t rows = 1 + rng.index(9);
        const std::size_t cols = 1 + rng.index(11);
        const auto stddev =
            static_cast<float>(std::pow(10.0, rng.uniform() * 8.0 - 4.0));
        Matrix m = Matrix::randn(rows, cols, rng, 0.0f, stddev);
        if (t % 10 == 0)  // a stray non-finite value in one in ten
            m.flat()[rng.index(m.size())] =
                t % 20 == 0 ? std::numeric_limits<float>::infinity()
                            : std::numeric_limits<float>::quiet_NaN();
        expect_roundtrip_bitwise(m, bits);
    }
}

TEST_P(RoundTripBits, InPlaceAndReusesStorage) {
    const int bits = GetParam();
    Rng rng(3);
    const Matrix m = Matrix::randn(9, 7, rng);
    const Matrix ref = dequantize(quantize_per_tensor(m, bits));

    Matrix same = m;
    quantize_roundtrip_into(same, bits, same);  // out aliases in
    EXPECT_EQ(std::memcmp(same.data(), ref.data(), ref.size() * sizeof(float)),
              0);

    Matrix out(20, 20);  // larger than needed: storage must be kept
    const float* before = out.data();
    quantize_roundtrip_into(m, bits, out);
    EXPECT_EQ(out.data(), before);
    ASSERT_EQ(out.rows(), 9u);
    ASSERT_EQ(out.cols(), 7u);
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
              0);
}

TEST_P(RoundTripBits, AffineParamsMatchSequentialScan) {
    // The range scan runs four lanes at a time; its scale and zero-point
    // must be those of the plain left-to-right std::min/std::max scan and
    // std::lround, NaN anywhere included.
    const int bits = GetParam();
    Rng rng(11 + bits);
    for (int t = 0; t < 200; ++t) {
        Matrix m = Matrix::randn(1 + rng.index(5), 1 + rng.index(9), rng,
                                 static_cast<float>(rng.normal()), 2.0f);
        if (t % 3 == 0)
            m.flat()[rng.index(m.size())] =
                std::numeric_limits<float>::quiet_NaN();
        const auto flat = m.flat();
        float lo = flat[0], hi = flat[0];
        for (const float v : flat) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        lo = std::min(lo, 0.0f);
        hi = std::max(hi, 0.0f);
        const auto levels = static_cast<std::int32_t>((1u << bits) - 1u);
        float range = hi - lo;
        if (range <= 0.0f) range = 1.0f;
        const float scale = range / static_cast<float>(levels);
        const auto zp = std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(-lo / scale)), 0, levels);

        const QuantizedTensor q = quantize_per_tensor(m, bits);
        EXPECT_EQ(std::memcmp(&q.scale, &scale, sizeof scale), 0);
        EXPECT_EQ(q.zero_point, zp);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, RoundTripBits, ::testing::Values(4, 8, 16));

TEST(Quantize, RoundTripRejectsUnsupportedBits) {
    Matrix m(1, 1), out;
    EXPECT_THROW(quantize_roundtrip_into(m, 3, out), Error);
}

TEST(Quantize, RoundHalfAwayMatchesLround) {
    // Every half-integer and integer in ±150k (ties are where a rounding
    // shortcut goes wrong), their float neighbours, and the values that
    // take the std::lround fallback.
    for (int k = -150000; k <= 150000; ++k) {
        const float x = static_cast<float>(k);
        for (const float v : {x + 0.5f, x, std::nextafter(x + 0.5f, 0.0f),
                              std::nextafter(x + 0.5f, 1e9f)})
            ASSERT_EQ(detail::round_half_away(v), std::lround(v)) << v;
    }
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (const float v : {0x1p22f, -0x1p22f, 0x1p22f + 0.5f, 0x1p23f + 1.0f,
                          std::nextafter(0x1p22f, 0.0f), 1e10f, -1e10f, inf,
                          -inf, nan, -0.0f, 0.49999997f, -0.49999997f})
        EXPECT_EQ(detail::round_half_away(v), std::lround(v)) << v;
}

} // namespace
} // namespace scgnn::tensor
