// Tests for tensor/tensor.h.
#include "tensor/tensor.h"

#include <sys/resource.h>

#include <vector>

#include <gtest/gtest.h>

#include "tensor/random.h"

namespace dar {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({3}), 3);
  EXPECT_EQ(NumElements({2, 3}), 6);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({2, 0, 4}), 0);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({}), "[]");
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ZerosInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.flat(i), 0.0f);
}

TEST(TensorTest, FullValue) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.flat(i), 3.5f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorTest, ScalarItem) {
  Tensor t = Tensor::Scalar(7.0f);
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.item(), 7.0f);
}

TEST(TensorTest, RowMajorLayout2D) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.flat(1 * 3 + 2), 5.0f);
}

TEST(TensorTest, RowMajorLayout3D) {
  Tensor t(Shape{2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t.flat((1 * 3 + 2) * 4 + 3), 9.0f);
}

TEST(TensorTest, SizeNegativeAxis) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
}

TEST(TensorTest, Reshape) {
  Tensor t = Tensor::Arange(6);
  Tensor r = t.Reshape({2, 3});
  EXPECT_EQ(r.at(1, 0), 3.0f);
  // Reshape copies: mutation does not alias.
  r.at(0, 0) = 99.0f;
  EXPECT_EQ(t.at(0), 0.0f);
}

TEST(TensorTest, FillAndZero) {
  Tensor t(Shape{4});
  t.Fill(2.0f);
  EXPECT_EQ(t.at(3), 2.0f);
  t.Zero();
  EXPECT_EQ(t.at(3), 0.0f);
}

TEST(TensorTest, AllClose) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  Tensor b = Tensor::FromVector({1.0f, 2.0f + 1e-7f});
  Tensor c = Tensor::FromVector({1.0f, 2.1f});
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(Tensor(Shape{3})));
}

TEST(TensorTest, Eye) {
  Tensor e = Tensor::Eye(3);
  EXPECT_EQ(e.at(0, 0), 1.0f);
  EXPECT_EQ(e.at(0, 1), 0.0f);
  EXPECT_EQ(e.at(2, 2), 1.0f);
}

TEST(TensorTest, Arange) {
  Tensor t = Tensor::Arange(4, 1.0f, 0.5f);
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(3), 2.5f);
}

TEST(TensorTest, RandnShapeAndSpread) {
  Pcg32 rng(1);
  Tensor t = Tensor::Randn({1000}, rng, 2.0f);
  double mean = 0.0, var = 0.0;
  for (int64_t i = 0; i < 1000; ++i) mean += t.at(i);
  mean /= 1000.0;
  for (int64_t i = 0; i < 1000; ++i) var += (t.at(i) - mean) * (t.at(i) - mean);
  var /= 1000.0;
  EXPECT_NEAR(mean, 0.0, 0.25);
  EXPECT_NEAR(var, 4.0, 1.0);
}

TEST(TensorTest, RandRange) {
  Pcg32 rng(2);
  Tensor t = Tensor::Rand({500}, rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_GE(t.at(i), -1.0f);
    EXPECT_LT(t.at(i), 1.0f);
  }
}

TEST(TensorTest, ToStringPreview) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f});
  std::string s = t.ToString();
  EXPECT_NE(s.find("[2]"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(TensorDeath, OutOfRangeAborts) {
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t.at(2, 0), "DAR_CHECK");
  EXPECT_DEATH(t.at(5), "DAR_CHECK");
}

TEST(TensorDeath, ShapeMismatchValues) {
  EXPECT_DEATH(Tensor(Shape{3}, std::vector<float>{1.0f}), "DAR_CHECK");
}

TEST(TensorDeath, ReshapeWrongCount) {
  Tensor t(Shape{4});
  EXPECT_DEATH(t.Reshape({3}), "DAR_CHECK");
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DAR_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DAR_SANITIZED_ALLOCATOR 1
#endif
#endif

// The allocator policy (tensor.cc) keeps freed tensor memory in the heap:
// a training step's worth of 1 MiB tensors, allocated and freed over and
// over, faults its pages in once. Under glibc's defaults the rounds map or
// regrow the heap and fault pages in again: 4096 faults over the 20
// rounds below, measured without the policy.
TEST(AllocatorPolicyTest, RepeatedLargeTensorsDoNotRefault) {
#if defined(DAR_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "sanitizer runtimes replace the allocator";
#else
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_minflt);
  };
  constexpr int64_t kFloatsPerMiB = (1 << 20) / sizeof(float);
  auto round = [] {
    std::vector<Tensor> live;
    for (int i = 0; i < 16; ++i) live.emplace_back(Shape{kFloatsPerMiB});
  };
  round();  // first peak: the pages fault in once
  const int64_t before = minor_faults();
  for (int i = 0; i < 20; ++i) round();
  const int64_t faults = minor_faults() - before;
  EXPECT_LT(faults, 500) << "20 rounds of 16 x 1 MiB tensors";
#endif
}

}  // namespace
}  // namespace dar
