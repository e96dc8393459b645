// Row kernels of the fused GRU cell (nn/gru.cc), exposed so the
// differential test (tests/nn_gru_test.cc) can hold the vectorized loops
// against a scalar witness bit for bit. Model code goes through nn::Gru.
//
// Gate layout [z | r | n] in the 3H projections p (input) and q (hidden):
//   z = sigmoid(p[:, 0H:1H] + q[:, 0H:1H])
//   r = sigmoid(p[:, 1H:2H] + q[:, 1H:2H])
//   n = tanh  (p[:, 2H:3H] + r  * q[:, 2H:3H])
//   h' = (1 - z) * n + z * h
//   out = mask * h' + (1 - mask) * h        (mask == nullptr: out = h')
//
// Backward (g = d out): with gm = g * mask (or g when unmasked),
//   dh  = gm * z + g * (1 - mask)
//   dn  = gm * (1 - z);        dt   = dn * (1 - n^2)
//   dp2 = dt;                  dq2  = dt * r;   dr = dt * q2
//   dp1 = dq1 = dr * r * (1 - r)
//   dz  = gm * (h - n);        dp0  = dq0 = dz * z * (1 - z)
//
// Shapes: p, q, dp, dq are [b, 3·hd]; h, z, r, n, out, g, dh are [b, hd];
// mask is [b] or null. Outputs must not alias inputs.
#ifndef DAR_NN_GRU_CELL_H_
#define DAR_NN_GRU_CELL_H_

#include <cstdint>

namespace dar {
namespace nn {

/// Forward: writes the gate activations z, r, n (kept for the backward)
/// and the new state `out`.
void GruCellForwardRows(const float* p, const float* q, const float* h,
                        const float* mask, int64_t b, int64_t hd, float* z,
                        float* r, float* n, float* out);

/// Backward: writes dp, dq and dh from the output gradient g, the saved
/// gates and the forward inputs q and h.
void GruCellBackwardRows(const float* g, const float* z, const float* r,
                         const float* n, const float* q, const float* h,
                         const float* mask, int64_t b, int64_t hd, float* dp,
                         float* dq, float* dh);

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_GRU_CELL_H_
