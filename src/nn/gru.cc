#include "nn/gru.h"

#include <cmath>
#include <utility>
#include <vector>

#include "nn/gru_cell.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/fastmath.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace nn {

namespace {

/// Extracts column t of a [B, T] mask tensor as a length-B constant vector.
Tensor MaskColumn(const Tensor& valid, int64_t t) {
  int64_t b = valid.size(0);
  Tensor out(Shape{b});
  for (int64_t i = 0; i < b; ++i) out.at(i) = valid.at(i, t);
  return out;
}

/// Row loops of the fused cell, templated on masking so the loop-invariant
/// mask branch leaves the inner loop. `__restrict` plus the file's
/// -fno-trapping-math (src/CMakeLists.txt) let GCC vectorize both loops,
/// FastExp included; the expressions are those of the scalar loop they
/// replaced, so the bits are unchanged (tests/nn_gru_test.cc).
template <bool kMasked>
void ForwardRows(const float* __restrict p, const float* __restrict q,
                 const float* __restrict h, const float* __restrict mask,
                 int64_t b, int64_t hd, float* __restrict z,
                 float* __restrict r, float* __restrict n,
                 float* __restrict out) {
  for (int64_t i = 0; i < b; ++i) {
    const float* __restrict prow = p + i * 3 * hd;
    const float* __restrict qrow = q + i * 3 * hd;
    const float* __restrict hrow = h + i * hd;
    const float mi = kMasked ? mask[i] : 1.0f;
    const float inv_mi = 1.0f - mi;
    float* __restrict zrow = z + i * hd;
    float* __restrict rrow = r + i * hd;
    float* __restrict nrow = n + i * hd;
    float* __restrict orow = out + i * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const float zv = fastmath::FastSigmoid(prow[j] + qrow[j]);
      const float rv = fastmath::FastSigmoid(prow[hd + j] + qrow[hd + j]);
      const float nv =
          fastmath::FastTanh(prow[2 * hd + j] + rv * qrow[2 * hd + j]);
      const float hprime = (1.0f - zv) * nv + zv * hrow[j];
      zrow[j] = zv;
      rrow[j] = rv;
      nrow[j] = nv;
      orow[j] = kMasked ? mi * hprime + inv_mi * hrow[j] : hprime;
    }
  }
}

template <bool kMasked>
void BackwardRows(const float* __restrict g, const float* __restrict z,
                  const float* __restrict r, const float* __restrict n,
                  const float* __restrict q, const float* __restrict h,
                  const float* __restrict mask, int64_t b, int64_t hd,
                  float* __restrict dp, float* __restrict dq,
                  float* __restrict dh) {
  for (int64_t i = 0; i < b; ++i) {
    const float* __restrict grow = g + i * hd;
    const float* __restrict zrow = z + i * hd;
    const float* __restrict rrow = r + i * hd;
    const float* __restrict nrow = n + i * hd;
    const float* __restrict q2row = q + i * 3 * hd + 2 * hd;
    const float* __restrict hrow = h + i * hd;
    const float mi = kMasked ? mask[i] : 1.0f;
    float* __restrict dprow = dp + i * 3 * hd;
    float* __restrict dqrow = dq + i * 3 * hd;
    float* __restrict dhrow = dh + i * hd;
    for (int64_t j = 0; j < hd; ++j) {
      const float gv = grow[j];
      const float gm = gv * mi;
      const float zv = zrow[j], rv = rrow[j], nv = nrow[j];
      const float dt = gm * (1.0f - zv) * (1.0f - nv * nv);
      const float ds_r = dt * q2row[j] * rv * (1.0f - rv);
      const float ds_z = gm * (hrow[j] - nv) * zv * (1.0f - zv);
      dprow[j] = ds_z;
      dprow[hd + j] = ds_r;
      dprow[2 * hd + j] = dt;
      dqrow[j] = ds_z;
      dqrow[hd + j] = ds_r;
      dqrow[2 * hd + j] = dt * rv;
      dhrow[j] = gm * zv + gv * (1.0f - mi);
    }
  }
}

/// Fused GRU cell: one op node in place of the ~12 slice/activation/
/// arithmetic nodes the recurrence used to record per timestep. The two
/// projections stay ordinary MatMuls (they ride the packed GEMM kernel);
/// this op fuses everything after them — gates, candidate, state blend,
/// and the optional padding freeze — into a single pass over [B, H].
///
/// The formulas (nn/gru_cell.h) — including FastSigmoid/FastTanh
/// (tensor/fastmath.h) — are expression-for-expression the composition
/// this replaced; the only permitted divergence is FP contraction within
/// the fused expressions.
/// There is exactly one implementation, so every consumer (training,
/// serving, cached and uncached paths, all replica counts) sees identical
/// bits — which is what the differential harnesses certify. Gradients are
/// certified by gradcheck in tests/nn_gru_test.cc and tests/gemm_test.cc.
ag::Variable GruCell(const ag::Variable& p, const ag::Variable& q,
                     const ag::Variable& h, const Tensor* mask) {
  const Tensor& pv = p.value();
  const Tensor& qv = q.value();
  const Tensor& hv = h.value();
  const int64_t b = hv.size(0), hd = hv.size(1);
  DAR_CHECK_EQ(pv.size(0), b);
  DAR_CHECK_EQ(pv.size(1), 3 * hd);
  DAR_CHECK_EQ(qv.size(0), b);
  DAR_CHECK_EQ(qv.size(1), 3 * hd);
  if (mask != nullptr) DAR_CHECK_EQ(mask->size(0), b);

  // Gate activations are retained for the backward closure (and drop with
  // the node when no input requires grad — inference stays light).
  Tensor z(Shape{b, hd}), r(Shape{b, hd}), n(Shape{b, hd});
  Tensor out = Tensor::Scratch(Shape{b, hd});
  GruCellForwardRows(pv.data(), qv.data(), hv.data(),
                     mask != nullptr ? mask->data() : nullptr, b, hd,
                     z.data(), r.data(), n.data(), out.data());

  auto np = p.node();
  auto nq = q.node();
  auto nh = h.node();
  Tensor mask_copy = mask != nullptr ? *mask : Tensor();
  const bool masked = mask != nullptr;
  auto backward = [np, nq, nh, z = std::move(z), r = std::move(r),
                   n = std::move(n), mask_copy = std::move(mask_copy), masked,
                   b, hd](ag::Node& node) {
    Tensor dp(Shape{b, 3 * hd}), dq(Shape{b, 3 * hd}), dh(Shape{b, hd});
    GruCellBackwardRows(node.grad.data(), z.data(), r.data(), n.data(),
                        nq->value.data(), nh->value.data(),
                        masked ? mask_copy.data() : nullptr, b, hd, dp.data(),
                        dq.data(), dh.data());
    if (np->requires_grad) np->AccumulateGrad(dp);
    if (nq->requires_grad) nq->AccumulateGrad(dq);
    if (nh->requires_grad) nh->AccumulateGrad(dh);
  };
  return ag::MakeOpResult("gru_cell", std::move(out), {np, nq, nh},
                          std::move(backward));
}

}  // namespace

void GruCellForwardRows(const float* p, const float* q, const float* h,
                        const float* mask, int64_t b, int64_t hd, float* z,
                        float* r, float* n, float* out) {
  if (mask != nullptr) {
    ForwardRows<true>(p, q, h, mask, b, hd, z, r, n, out);
  } else {
    ForwardRows<false>(p, q, h, nullptr, b, hd, z, r, n, out);
  }
}

void GruCellBackwardRows(const float* g, const float* z, const float* r,
                         const float* n, const float* q, const float* h,
                         const float* mask, int64_t b, int64_t hd, float* dp,
                         float* dq, float* dh) {
  if (mask != nullptr) {
    BackwardRows<true>(g, z, r, n, q, h, mask, b, hd, dp, dq, dh);
  } else {
    BackwardRows<false>(g, z, r, n, q, h, nullptr, b, hd, dp, dq, dh);
  }
}

Gru::Gru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng, bool reverse)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), reverse_(reverse) {
  DAR_CHECK_GT(input_dim, 0);
  DAR_CHECK_GT(hidden_dim, 0);
  float bx = std::sqrt(6.0f / static_cast<float>(input_dim + hidden_dim));
  float bh = std::sqrt(6.0f / static_cast<float>(2 * hidden_dim));
  w_x_ = RegisterParameter(
      "w_x", Tensor::Rand(Shape{input_dim, 3 * hidden_dim}, rng, -bx, bx));
  w_h_ = RegisterParameter(
      "w_h", Tensor::Rand(Shape{hidden_dim, 3 * hidden_dim}, rng, -bh, bh));
  b_ = RegisterParameter("b", Tensor::Zeros(Shape{3 * hidden_dim}));
}

ag::Variable Gru::Step(const ag::Variable& x_proj, const ag::Variable& h) const {
  // Hidden projection through the packed GEMM kernel, gates through the
  // fused cell — the whole recurrent step is two op nodes.
  ag::Variable h_proj = ag::MatMul(h, w_h_);
  return GruCell(x_proj, h_proj, h, /*mask=*/nullptr);
}

ag::Variable Gru::Forward(const ag::Variable& x, const Tensor* valid) const {
  obs::Span span("gru.forward", obs::TraceLevel::kDetailed);
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  int64_t b = xv.size(0), t_len = xv.size(1);
  DAR_CHECK_EQ(xv.size(2), input_dim_);
  if (valid != nullptr) {
    DAR_CHECK_EQ(valid->dim(), 2);
    DAR_CHECK_EQ(valid->size(0), b);
    DAR_CHECK_EQ(valid->size(1), t_len);
  }

  // Project all timesteps at once: [B*T, E] x [E, 3H] — one large GEMM
  // instead of T small ones; the packed kernel's best case.
  ag::Variable x_flat = ag::Reshape(x, Shape{b * t_len, input_dim_});
  ag::Variable proj_flat = ag::AddBias(ag::MatMul(x_flat, w_x_), b_);
  ag::Variable proj = ag::Reshape(proj_flat, Shape{b, t_len, 3 * hidden_dim_});

  ag::Variable h = ag::Variable::Constant(Tensor::Zeros(Shape{b, hidden_dim_}));
  std::vector<ag::Variable> outputs(static_cast<size_t>(t_len));
  for (int64_t step = 0; step < t_len; ++step) {
    int64_t t = reverse_ ? t_len - 1 - step : step;
    // The padding freeze (h = m * h' + (1 - m) * h) is folded into the
    // fused cell rather than composed from ScaleRows/Add ops.
    ag::Variable h_proj = ag::MatMul(h, w_h_);
    if (valid != nullptr) {
      Tensor m = MaskColumn(*valid, t);
      h = GruCell(ag::SliceTimeOp(proj, t), h_proj, h, &m);
    } else {
      h = GruCell(ag::SliceTimeOp(proj, t), h_proj, h, nullptr);
    }
    outputs[static_cast<size_t>(t)] = h;
  }
  return ag::StackTimeOp(outputs);
}

BiGru::BiGru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng)
    : forward_(input_dim, hidden_dim, rng, /*reverse=*/false),
      backward_(input_dim, hidden_dim, rng, /*reverse=*/true) {
  RegisterChild("fw", &forward_);
  RegisterChild("bw", &backward_);
}

ag::Variable BiGru::Forward(const ag::Variable& x, const Tensor* valid) const {
  ag::Variable fw = forward_.Forward(x, valid);
  ag::Variable bw = backward_.Forward(x, valid);
  const Tensor& xv = x.value();
  int64_t b = xv.size(0), t_len = xv.size(1);
  int64_t hd = forward_.hidden_dim();
  // Concatenate along the feature dim: reshape both to [B*T, H] and concat.
  ag::Variable fw2 = ag::Reshape(fw, Shape{b * t_len, hd});
  ag::Variable bw2 = ag::Reshape(bw, Shape{b * t_len, hd});
  return ag::Reshape(ag::ConcatCols(fw2, bw2), Shape{b, t_len, 2 * hd});
}

}  // namespace nn
}  // namespace dar
