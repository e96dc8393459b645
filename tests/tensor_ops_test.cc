// Tests for tensor/tensor_ops.h kernels.
#include "tensor/tensor_ops.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "tensor/fastmath.h"
#include "tensor/random.h"

namespace dar {
namespace {

Tensor T2(std::vector<float> v, int64_t rows, int64_t cols) {
  return Tensor(Shape{rows, cols}, std::move(v));
}

TEST(ElementwiseTest, AddSubMulDiv) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::FromVector({4.0f, 5.0f, 6.0f});
  EXPECT_TRUE(Add(a, b).AllClose(Tensor::FromVector({5.0f, 7.0f, 9.0f})));
  EXPECT_TRUE(Sub(a, b).AllClose(Tensor::FromVector({-3.0f, -3.0f, -3.0f})));
  EXPECT_TRUE(Mul(a, b).AllClose(Tensor::FromVector({4.0f, 10.0f, 18.0f})));
  EXPECT_TRUE(Div(b, a).AllClose(Tensor::FromVector({4.0f, 2.5f, 2.0f})));
}

TEST(ElementwiseTest, ShapeMismatchAborts) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_DEATH(Add(a, b), "equal shapes");
}

TEST(ElementwiseTest, InPlaceOps) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  Tensor b = Tensor::FromVector({10.0f, 20.0f});
  AddInPlace(a, b);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({11.0f, 22.0f})));
  AxpyInPlace(a, b, 0.5f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({16.0f, 32.0f})));
  ScaleInPlace(a, 0.25f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({4.0f, 8.0f})));
}

TEST(ElementwiseTest, ScalarOps) {
  Tensor a = Tensor::FromVector({1.0f, -2.0f});
  EXPECT_TRUE(AddScalar(a, 1.0f).AllClose(Tensor::FromVector({2.0f, -1.0f})));
  EXPECT_TRUE(MulScalar(a, -2.0f).AllClose(Tensor::FromVector({-2.0f, 4.0f})));
  EXPECT_TRUE(Neg(a).AllClose(Tensor::FromVector({-1.0f, 2.0f})));
  EXPECT_TRUE(Abs(a).AllClose(Tensor::FromVector({1.0f, 2.0f})));
}

TEST(UnaryTest, MathFunctions) {
  Tensor a = Tensor::FromVector({0.0f, 1.0f});
  EXPECT_NEAR(Exp(a).at(1), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(Log(Tensor::FromVector({std::exp(2.0f)})).at(0), 2.0f, 1e-4f);
  EXPECT_NEAR(Tanh(a).at(1), std::tanh(1.0f), 1e-5f);
  EXPECT_NEAR(Sigmoid(Tensor::FromVector({0.0f})).at(0), 0.5f, 1e-6f);
  EXPECT_TRUE(Relu(Tensor::FromVector({-1.0f, 2.0f}))
                  .AllClose(Tensor::FromVector({0.0f, 2.0f})));
  EXPECT_NEAR(Sqrt(Tensor::FromVector({9.0f})).at(0), 3.0f, 1e-5f);
}

// Scalar witnesses for the vectorized Sigmoid/Tanh kernels: one element per
// out-of-line call, so the witness loop stays scalar.
[[gnu::noinline]] float WitnessSigmoid(float x) {
  return fastmath::FastSigmoid(x);
}
[[gnu::noinline]] float WitnessTanh(float x) { return fastmath::FastTanh(x); }

uint32_t Bits(float x) {
  uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

TEST(UnaryTest, VectorizedSigmoidTanhMatchScalarWitnessBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // FastExp's clamp edges for both callers (sigmoid passes -x, tanh -2x),
  // non-finite values, denormals, and dense runs of floats around the
  // points where round(x / ln 2) sits exactly on .5 (floor ties).
  std::vector<float> v = {0.0f,  -0.0f,  87.0f,  -87.0f, 88.0f, -88.0f,
                          43.5f, -43.5f, 44.0f,  -44.0f, 89.0f, -89.0f,
                          1e30f, -1e30f, inf,    -inf,   nan,   -nan,
                          1e-40f, -1e-40f};
  for (int k = -8; k <= 8; ++k) {
    float x = (static_cast<float>(k) - 0.5f) / 1.44269504089f;
    for (int step = 0; step < 8; ++step) x = std::nextafter(x, -inf);
    for (int step = 0; step < 16; ++step) {
      v.push_back(-x);
      v.push_back(-0.5f * x);
      x = std::nextafter(x, inf);
    }
  }
  Pcg32 rng(5);
  for (int i = 0; i < 1000; ++i) v.push_back(rng.Normal(0.0f, 20.0f));
  // Lengths that exercise the scalar tail alone, whole vectors, and both.
  for (size_t len : {size_t{1}, size_t{7}, size_t{8}, size_t{33}, v.size()}) {
    for (size_t offset = 0; offset + len <= v.size(); offset += len) {
      Tensor a = Tensor::FromVector(
          std::vector<float>(v.begin() + static_cast<std::ptrdiff_t>(offset),
                             v.begin() +
                                 static_cast<std::ptrdiff_t>(offset + len)));
      const Tensor s = Sigmoid(a);
      const Tensor t = Tanh(a);
      for (int64_t i = 0; i < a.numel(); ++i) {
        ASSERT_EQ(Bits(s.at(i)), Bits(WitnessSigmoid(a.at(i))))
            << "sigmoid(" << a.at(i) << ")";
        ASSERT_EQ(Bits(t.at(i)), Bits(WitnessTanh(a.at(i))))
            << "tanh(" << a.at(i) << ")";
      }
    }
  }
}

TEST(UnaryTest, LogClampsNearZero) {
  Tensor out = Log(Tensor::FromVector({0.0f}));
  EXPECT_TRUE(std::isfinite(out.at(0)));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = T2({7, 8, 9, 10, 11, 12}, 3, 2);
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(T2({58, 64, 139, 154}, 2, 2)));
}

TEST(MatMulTest, IdentityIsNoop) {
  Pcg32 rng(3);
  Tensor a = Tensor::Randn({4, 4}, rng);
  EXPECT_TRUE(MatMul(a, Tensor::Eye(4)).AllClose(a, 1e-5f));
  EXPECT_TRUE(MatMul(Tensor::Eye(4), a).AllClose(a, 1e-5f));
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Pcg32 rng(4);
  Tensor a = Tensor::Randn({5, 3}, rng);
  Tensor b = Tensor::Randn({5, 4}, rng);
  // A^T B  ==  transpose(A) * B
  EXPECT_TRUE(MatMulTA(a, b).AllClose(MatMul(Transpose(a), b), 1e-4f));
  Tensor c = Tensor::Randn({6, 3}, rng);
  Tensor d = Tensor::Randn({4, 3}, rng);
  // C D^T  ==  C * transpose(D)
  EXPECT_TRUE(MatMulTB(c, d).AllClose(MatMul(c, Transpose(d)), 1e-4f));
}

TEST(MatMulTest, InnerDimMismatchAborts) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_DEATH(MatMul(a, b), "DAR_CHECK");
}

/// Parameterized sweep: matmul against a naive reference over shapes.
class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweep, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Pcg32 rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = MatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 3},
                      std::tuple{5, 1, 5}, std::tuple{8, 8, 8},
                      std::tuple{3, 17, 5}, std::tuple{16, 2, 9}));

TEST(BroadcastTest, AddRowBroadcast) {
  Tensor m = T2({1, 2, 3, 4}, 2, 2);
  Tensor row = Tensor::FromVector({10.0f, 20.0f});
  EXPECT_TRUE(AddRowBroadcast(m, row).AllClose(T2({11, 22, 13, 24}, 2, 2)));
}

TEST(BroadcastTest, SumRows) {
  Tensor m = T2({1, 2, 3, 4}, 2, 2);
  EXPECT_TRUE(SumRows(m).AllClose(Tensor::FromVector({4.0f, 6.0f})));
}

TEST(ReduceTest, Aggregates) {
  Tensor a = Tensor::FromVector({1.0f, -2.0f, 3.0f});
  EXPECT_NEAR(SumAll(a), 2.0f, 1e-6f);
  EXPECT_NEAR(MeanAll(a), 2.0f / 3.0f, 1e-6f);
  EXPECT_EQ(MaxAll(a), 3.0f);
  EXPECT_EQ(MinAll(a), -2.0f);
}

TEST(ReduceTest, ArgMaxRows) {
  Tensor m = T2({1, 5, 2, 9, 3, 4}, 2, 3);
  std::vector<int64_t> idx = ArgMaxRows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Pcg32 rng(5);
  Tensor logits = Tensor::Randn({4, 6}, rng, 3.0f);
  Tensor p = SoftmaxRows(logits);
  for (int64_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor logits = T2({1000.0f, 999.0f}, 1, 2);
  Tensor p = SoftmaxRows(logits);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_GT(p.at(0, 0), p.at(0, 1));
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Pcg32 rng(6);
  Tensor logits = Tensor::Randn({3, 5}, rng);
  Tensor ls = LogSoftmaxRows(logits);
  Tensor p = SoftmaxRows(logits);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(ls.at(i, j), std::log(p.at(i, j)), 1e-4f);
    }
  }
}

TEST(ShapeOpsTest, Transpose) {
  Tensor m = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor t = Transpose(m);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(ShapeOpsTest, ConcatCols) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor b = T2({5, 6}, 2, 1);
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.size(1), 3);
  EXPECT_EQ(c.at(0, 2), 5.0f);
  EXPECT_EQ(c.at(1, 1), 4.0f);
}

TEST(ShapeOpsTest, SliceAndSetTime) {
  Tensor x(Shape{2, 3, 2});
  Tensor step = T2({1, 2, 3, 4}, 2, 2);
  SetTime(x, 1, step);
  Tensor got = SliceTime(x, 1);
  EXPECT_TRUE(got.AllClose(step));
  EXPECT_EQ(SliceTime(x, 0).at(0, 0), 0.0f);
}

TEST(ShapeOpsTest, Norm2) {
  EXPECT_NEAR(Norm2(Tensor::FromVector({3.0f, 4.0f})), 5.0f, 1e-5f);
}

}  // namespace
}  // namespace dar
