// Tests for the GRU / BiGRU encoders.
#include "nn/gru.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "nn/gru_cell.h"
#include "tensor/fastmath.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace nn {
namespace {

ag::Variable Embed(const Tensor& t) { return ag::Variable::Constant(t); }

TEST(GruTest, OutputShape) {
  Pcg32 rng(1);
  Gru gru(3, 5, rng);
  Tensor x(Shape{2, 4, 3}, 0.1f);
  ag::Variable out = gru.Forward(Embed(x));
  EXPECT_EQ(out.value().shape(), (Shape{2, 4, 5}));
}

TEST(GruTest, ParameterCount) {
  Pcg32 rng(2);
  Gru gru(3, 5, rng);
  // w_x [3,15] + w_h [5,15] + b [15].
  EXPECT_EQ(gru.NumParameters(), 3 * 15 + 5 * 15 + 15);
}

TEST(GruTest, ZeroInputZeroStateStaysSmall) {
  Pcg32 rng(3);
  Gru gru(2, 3, rng);
  Tensor x(Shape{1, 5, 2});  // zeros
  Tensor out = gru.Forward(Embed(x)).value();
  // With zero input and zero initial state, tanh/sigmoid keep values
  // bounded well inside (-1, 1).
  EXPECT_LT(MaxAll(Abs(out)), 1.0f);
}

TEST(GruTest, StatePropagatesThroughTime) {
  Pcg32 rng(4);
  Gru gru(1, 4, rng);
  Tensor x(Shape{1, 3, 1});
  x.at(0, 0, 0) = 5.0f;  // impulse at t=0, zero afterwards
  Tensor out = gru.Forward(Embed(x)).value();
  // The impulse response must persist: later steps differ from what an
  // all-zero input would give (memory).
  Tensor zero_x(Shape{1, 3, 1});
  Tensor zero_out = gru.Forward(Embed(zero_x)).value();
  EXPECT_FALSE(SliceTime(out, 2).AllClose(SliceTime(zero_out, 2), 1e-4f));
}

TEST(GruTest, MaskFreezesStateAtPadding) {
  Pcg32 rng(5);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(6);
  Tensor x = Tensor::Randn({1, 4, 2}, data_rng);
  Tensor valid(Shape{1, 4}, {1, 1, 0, 0});
  Tensor out = gru.Forward(Embed(x), &valid).value();
  // After the sequence ends, the hidden state must stay frozen.
  EXPECT_TRUE(SliceTime(out, 2).AllClose(SliceTime(out, 1)));
  EXPECT_TRUE(SliceTime(out, 3).AllClose(SliceTime(out, 1)));
}

TEST(GruTest, PaddingContentDoesNotAffectValidStates) {
  Pcg32 rng(7);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(8);
  Tensor x1 = Tensor::Randn({1, 4, 2}, data_rng);
  Tensor x2 = x1;
  // Corrupt padded positions only.
  x2.at(0, 3, 0) = 100.0f;
  Tensor valid(Shape{1, 4}, {1, 1, 1, 0});
  Tensor out1 = gru.Forward(Embed(x1), &valid).value();
  Tensor out2 = gru.Forward(Embed(x2), &valid).value();
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(SliceTime(out1, t).AllClose(SliceTime(out2, t)));
  }
}

TEST(GruTest, ReverseDirectionMirrorsForward) {
  Pcg32 rng(9);
  // Same weights: construct forward, copy into reverse.
  Gru forward(2, 3, rng, /*reverse=*/false);
  Pcg32 rng2(9);
  Gru reverse(2, 3, rng2, /*reverse=*/true);  // identical init (same seed)
  Pcg32 data_rng(10);
  Tensor x = Tensor::Randn({1, 4, 2}, data_rng);
  // Time-reversed copy of x.
  Tensor xr(Shape{1, 4, 2});
  for (int64_t t = 0; t < 4; ++t) SetTime(xr, t, SliceTime(x, 3 - t));
  Tensor out_fwd = forward.Forward(Embed(xr)).value();
  Tensor out_rev = reverse.Forward(Embed(x)).value();
  // reverse(x) at time t == forward(reversed x) at time 3-t.
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(SliceTime(out_rev, t).AllClose(SliceTime(out_fwd, 3 - t), 1e-5f));
  }
}

TEST(BiGruTest, OutputConcatenatesDirections) {
  Pcg32 rng(11);
  BiGru bigru(3, 4, rng);
  EXPECT_EQ(bigru.output_dim(), 8);
  Tensor x(Shape{2, 5, 3}, 0.2f);
  ag::Variable out = bigru.Forward(Embed(x));
  EXPECT_EQ(out.value().shape(), (Shape{2, 5, 8}));
}

TEST(BiGruTest, BackwardHalfSeesFuture) {
  Pcg32 rng(12);
  BiGru bigru(1, 2, rng);
  Tensor x1(Shape{1, 3, 1});
  Tensor x2(Shape{1, 3, 1});
  x2.at(0, 2, 0) = 3.0f;  // differ only at the last step
  Tensor out1 = bigru.Forward(Embed(x1)).value();
  Tensor out2 = bigru.Forward(Embed(x2)).value();
  // At t=0 the forward half agrees but the backward half must differ.
  bool fw_same = true, bw_differ = false;
  for (int64_t j = 0; j < 2; ++j) {
    if (std::abs(out1.at(0, 0, j) - out2.at(0, 0, j)) > 1e-6f) fw_same = false;
    if (std::abs(out1.at(0, 0, 2 + j) - out2.at(0, 0, 2 + j)) > 1e-6f) {
      bw_differ = true;
    }
  }
  EXPECT_TRUE(fw_same);
  EXPECT_TRUE(bw_differ);
}

TEST(GruTest, GradCheckThroughTime) {
  Pcg32 rng(13);
  Gru gru(2, 2, rng);
  Pcg32 data_rng(14);
  ag::GradCheckResult r = ag::CheckGradients(
      [&gru](const std::vector<ag::Variable>& v) {
        ag::Variable y = gru.Forward(v[0]);
        return ag::Sum(ag::Mul(y, y));
      },
      {Tensor::Randn({1, 3, 2}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(GruTest, GradientsReachAllWeights) {
  Pcg32 rng(15);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(16);
  Tensor x = Tensor::Randn({2, 3, 2}, data_rng);
  ag::Sum(gru.Forward(Embed(x))).Backward();
  for (const NamedParameter& p : gru.Parameters()) {
    EXPECT_TRUE(p.variable.has_grad()) << p.name;
    EXPECT_GT(Norm2(p.variable.grad()), 0.0f) << p.name;
  }
}

// ---- Vectorized cell against a scalar witness --------------------------------
//
// The fused cell's row loops are vectorized (nn/gru.cc); the witness below
// evaluates the same formulas one element at a time through a call the
// compiler cannot vectorize. The two must agree bit for bit on every input,
// including FastExp's clamp edges, non-finite values and floor ties.

/// One forward element of the cell (nn/gru_cell.h), kept out of line so
/// the witness loop stays scalar.
[[gnu::noinline]] void WitnessForward(float p0, float p1, float p2, float q0,
                                      float q1, float q2, float h, float mi,
                                      bool masked, float* z, float* r,
                                      float* n, float* out) {
  const float zv = fastmath::FastSigmoid(p0 + q0);
  const float rv = fastmath::FastSigmoid(p1 + q1);
  const float nv = fastmath::FastTanh(p2 + rv * q2);
  const float hprime = (1.0f - zv) * nv + zv * h;
  *z = zv;
  *r = rv;
  *n = nv;
  *out = masked ? mi * hprime + (1.0f - mi) * h : hprime;
}

/// One backward element of the cell.
[[gnu::noinline]] void WitnessBackward(float g, float zv, float rv, float nv,
                                       float q2, float h, float mi, float* dp0,
                                       float* dp1, float* dp2, float* dq2,
                                       float* dh) {
  const float gm = g * mi;
  const float dt = gm * (1.0f - zv) * (1.0f - nv * nv);
  *dp1 = dt * q2 * rv * (1.0f - rv);
  *dp0 = gm * (h - nv) * zv * (1.0f - zv);
  *dp2 = dt;
  *dq2 = dt * rv;
  *dh = gm * zv + g * (1.0f - mi);
}

/// Gate inputs that reach FastExp at its clamp edges (±87, ±88 and just
/// past them), non-finite values, and a dense run of floats around the
/// points where FastExp's round(x / ln 2) lands exactly on .5 (floor ties).
std::vector<float> SpecialInputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> v = {0.0f,   -0.0f,  87.0f,   -87.0f, 88.0f,  -88.0f,
                          43.5f,  -43.5f, 44.0f,   -44.0f, 87.5f,  -88.5f,
                          89.0f,  -90.0f, 1e30f,   -1e30f, inf,    -inf,
                          nan,    -nan,   1e-40f,  -1e-40f, 0.5f,  -2.5f};
  for (int k = -6; k <= 6; ++k) {
    float x = (static_cast<float>(k) - 0.5f) / 1.44269504089f;
    for (int step = 0; step < 8; ++step) x = std::nextafter(x, -inf);
    for (int step = 0; step < 16; ++step) {
      v.push_back(x);
      v.push_back(-x);
      v.push_back(-0.5f * x);  // tanh's FastExp sees -2 * input
      x = std::nextafter(x, inf);
    }
  }
  return v;
}

bool SameBits(float a, float b) {
  uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

TEST(GruCellVectorTest, ForwardAndBackwardMatchScalarWitnessBitwise) {
  const std::vector<float> special = SpecialInputs();
  Pcg32 rng(77);
  size_t cursor = 0;
  // Half the slots take a special value, the rest a random normal one.
  auto next = [&](float scale) {
    if (rng.NextFloat() < 0.5f) return special[cursor++ % special.size()];
    return rng.Normal(0.0f, scale);
  };
  for (int64_t hd : {1, 7, 8, 24, 33}) {
    for (bool masked : {false, true}) {
      for (int round = 0; round < 8; ++round) {
        const int64_t b = 5;
        std::vector<float> p(b * 3 * hd), q(b * 3 * hd), h(b * hd),
            g(b * hd), mask(b);
        for (float& x : p) x = next(3.0f);
        for (float& x : q) x = rng.NextFloat() < 0.25f ? 0.0f : next(3.0f);
        for (float& x : h) x = next(1.0f);
        for (float& x : g) x = next(1.0f);
        const float mask_values[] = {1.0f, 0.0f, 1.0f, 0.5f, 0.0f};
        for (int64_t i = 0; i < b; ++i) mask[i] = mask_values[i];
        const float* pm = masked ? mask.data() : nullptr;

        std::vector<float> z(b * hd), r(b * hd), n(b * hd), out(b * hd);
        GruCellForwardRows(p.data(), q.data(), h.data(), pm, b, hd, z.data(),
                           r.data(), n.data(), out.data());
        std::vector<float> dp(b * 3 * hd), dq(b * 3 * hd), dh(b * hd);
        GruCellBackwardRows(g.data(), z.data(), r.data(), n.data(), q.data(),
                            h.data(), pm, b, hd, dp.data(), dq.data(),
                            dh.data());

        for (int64_t i = 0; i < b; ++i) {
          const float mi = masked ? mask[i] : 1.0f;
          for (int64_t j = 0; j < hd; ++j) {
            const int64_t e = i * hd + j, g3 = i * 3 * hd + j;
            float wz, wr, wn, wout;
            WitnessForward(p[g3], p[g3 + hd], p[g3 + 2 * hd], q[g3],
                           q[g3 + hd], q[g3 + 2 * hd], h[e], mi, masked, &wz,
                           &wr, &wn, &wout);
            ASSERT_TRUE(SameBits(z[e], wz) && SameBits(r[e], wr) &&
                        SameBits(n[e], wn) && SameBits(out[e], wout))
                << "forward hd=" << hd << " masked=" << masked << " i=" << i
                << " j=" << j << ": z " << z[e] << "/" << wz << " r " << r[e]
                << "/" << wr << " n " << n[e] << "/" << wn << " out "
                << out[e] << "/" << wout;
            float dp0, dp1, dp2, dq2, wdh;
            WitnessBackward(g[e], z[e], r[e], n[e], q[g3 + 2 * hd], h[e], mi,
                            &dp0, &dp1, &dp2, &dq2, &wdh);
            ASSERT_TRUE(SameBits(dp[g3], dp0) && SameBits(dp[g3 + hd], dp1) &&
                        SameBits(dp[g3 + 2 * hd], dp2) &&
                        SameBits(dq[g3], dp0) && SameBits(dq[g3 + hd], dp1) &&
                        SameBits(dq[g3 + 2 * hd], dq2) &&
                        SameBits(dh[e], wdh))
                << "backward hd=" << hd << " masked=" << masked << " i=" << i
                << " j=" << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace dar
