// Sum-factorized tensor-product viscous operator (§III-D, Eq. 19).
//
// The reference gradient D_e is never formed: it is applied as the three
// Kronecker factors (D̂⊗B̂⊗B̂, B̂⊗D̂⊗B̂, B̂⊗B̂⊗D̂) through one-dimensional
// contractions ("sum factorization"), reducing the gradient cost by ~3x and
// shrinking per-element state to a few cache lines — the property that lets
// the paper vectorize over elements and reach >30% of peak.
//
// The batched path (batch_width = 8) realizes that vectorization: W
// elements (same-colored in the global loop, consecutive in a subdomain
// engine's lists) are gathered into SoA lane buffers and every kernel
// statement runs as one W-wide SIMD instruction over the lane index. Each
// lane performs the scalar arithmetic in the scalar order and the lanes
// scatter one after another, so batched applies are bitwise identical to the
// per-element path (asserted in tests).
//
// The batched path computes each batch's quadrature geometry (the inverse
// Jacobian and w|J| at 27 points) on the operator's first apply, stores it
// on the second in a per-batch slot keyed by the batch's first element, and
// reads it back on every later one (docs/KERNELS.md "Geometry cache"). The
// slot holds what element_geometry_batch writes, so the three applies agree
// bitwise whichever of the viscous, Newton and coupled applies they are. The
// scalar path, the ragged tails and the coupled sweep's P1 basis still
// compute inline.
//
// Both paths are templated on Pressure. Without it they are the viscous
// block alone (the GMG smoothers, the Table I rows). With it they are the
// coupled Stokes apply with B and B^T folded in (docs/KERNELS.md "Coupled
// Tens sweep"): at each quadrature point the pressure p(x_q) =
// sum_k p_k psi_k(x_q) comes off the stress diagonal, so the transpose
// contraction also yields B p, and -w|J| psi_k div u goes into the element's
// 4 pressure outputs, which is B^T u. The pressure terms are spelled with
// pt_muladd, so the scalar and lane paths round them alike whatever the
// compiler contracts.
#include "common/muladd.hpp"
#include "fem/dofmap.hpp"
#include "stokes/tensor_contract.hpp"
#include "stokes/viscous_ops.hpp"

namespace ptatin {

using tensor_kernel::tensor_gradient;
using tensor_kernel::tensor_gradient_batched;
using tensor_kernel::tensor_gradient_transpose;
using tensor_kernel::tensor_gradient_transpose_batched;

namespace {

/// One element of the scalar path; also handles the ragged tail of the
/// batched path so both paths share the same per-element code. With
/// Pressure, pin/pout are the pressure blocks of the coupled input/output:
/// the element reads its 4 modes and writes its 4 divergence outputs.
template <bool Pressure>
inline void apply_tensor_element(const StructuredMesh& mesh,
                                 const QuadCoefficients& coeff,
                                 const Q2Tabulation& tab, bool newton, Index e,
                                 const Real* xp, Real* yp, const Real* pin,
                                 Real* pout) {
  Index nodes[kQ2NodesPerEl];
  mesh.element_nodes(e, nodes);

  // Component-major local state: u[c][27].
  Real u[3][kQ2NodesPerEl];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) u[c][i] = xp[velocity_dof(nodes[i], c)];

  ElementGeometry g;
  element_geometry(mesh, e, g);

  // Pressure side: the element's modes, its P1 frame, and the running
  // sums flux[k] = sum_q w|J| psi_k div u.
  [[maybe_unused]] Real pe[kP1NodesPerEl], flux[kP1NodesPerEl] = {};
  [[maybe_unused]] P1Frame frame;
  if constexpr (Pressure) {
    for (int k = 0; k < kP1NodesPerEl; ++k) pe[k] = pin[pressure_dof(e, k)];
    frame = element_p1_frame(mesh, e);
  }

  // Reference gradients of all three components at all quadrature points.
  Real gref[3][3][kQuadPerEl]; // [component][ref-direction][q]
  for (int c = 0; c < 3; ++c)
    tensor_gradient(tab.B1, tab.D1, u[c], gref[c][0], gref[c][1], gref[c][2]);

  // Quadrature loop: map to physical, stress, map back to reference.
  Real sref[3][3][kQuadPerEl]; // [component][ref-direction][q]
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Mat3& ga = g.gamma[q]; // gamma[3d + r] = dxi_d/dx_r
    Real G[3][3];                // physical gradient
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r)
        G[c][r] = gref[c][0][q] * ga[0 + r] + gref[c][1][q] * ga[3 + r] +
                  gref[c][2][q] * ga[6 + r];

    const Real eta = coeff.eta(e, q);
    const Real scale = g.wdetj[q];
    const Real Dxx = G[0][0], Dyy = G[1][1], Dzz = G[2][2];
    const Real Dxy = Real(0.5) * (G[0][1] + G[1][0]);
    const Real Dxz = Real(0.5) * (G[0][2] + G[2][0]);
    const Real Dyz = Real(0.5) * (G[1][2] + G[2][1]);

    Real s[3][3];
    if constexpr (Pressure) {
      Real psi[kP1NodesPerEl];
      p1disc_eval(frame, g.xq[q], psi);
      const Real pq = pt_muladd(
          pe[3], psi[3],
          pt_muladd(pe[2], psi[2], pt_muladd(pe[1], psi[1], pe[0])));
      s[0][0] = pt_muladd(2 * eta, Dxx, -pq);
      s[1][1] = pt_muladd(2 * eta, Dyy, -pq);
      s[2][2] = pt_muladd(2 * eta, Dzz, -pq);
      const Real dv = scale * (Dxx + Dyy + Dzz);
      for (int k = 0; k < kP1NodesPerEl; ++k)
        flux[k] = pt_muladd(dv, psi[k], flux[k]);
    } else {
      s[0][0] = 2 * eta * Dxx;
      s[1][1] = 2 * eta * Dyy;
      s[2][2] = 2 * eta * Dzz;
    }
    s[0][1] = s[1][0] = 2 * eta * Dxy;
    s[0][2] = s[2][0] = 2 * eta * Dxz;
    s[1][2] = s[2][1] = 2 * eta * Dyz;

    if (newton) {
      const Real* d0 = coeff.d0(e, q);
      const Real dd = d0[0] * Dxx + d0[1] * Dyy + d0[2] * Dzz +
                      2 * (d0[3] * Dxy + d0[4] * Dxz + d0[5] * Dyz);
      const Real f = 2 * coeff.deta(e, q) * dd;
      s[0][0] += f * d0[0];
      s[1][1] += f * d0[1];
      s[2][2] += f * d0[2];
      s[0][1] += f * d0[3];
      s[1][0] += f * d0[3];
      s[0][2] += f * d0[4];
      s[2][0] += f * d0[4];
      s[1][2] += f * d0[5];
      s[2][1] += f * d0[5];
    }

    // Reference stress: sref[c][d] = scale * sum_r s[c][r] gamma[d][r].
    for (int c = 0; c < 3; ++c)
      for (int d = 0; d < 3; ++d)
        sref[c][d][q] =
            scale * (s[c][0] * ga[3 * d + 0] + s[c][1] * ga[3 * d + 1] +
                     s[c][2] * ga[3 * d + 2]);
  }

  // Transpose contractions and scatter.
  Real ye[3][kQ2NodesPerEl] = {};
  for (int c = 0; c < 3; ++c)
    tensor_gradient_transpose(tab.B1, tab.D1, sref[c][0], sref[c][1],
                              sref[c][2], ye[c]);

  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int c = 0; c < 3; ++c) yp[velocity_dof(nodes[i], c)] += ye[c][i];
  if constexpr (Pressure)
    for (int k = 0; k < kP1NodesPerEl; ++k)
      pout[pressure_dof(e, k)] = -flux[k];
}

} // namespace

template <int W, bool Pressure>
void TensorViscousOperator::apply_lanes(const Index* elems, const Real* xp,
                                        Real* yp, const Real* pin, Real* pout,
                                        bool fill, bool newton) const {
  const auto& tab = q2_tabulation();
  Index nodes[W][kQ2NodesPerEl];
  for (int l = 0; l < W; ++l) mesh_.element_nodes(elems[l], nodes[l]);

  // Gather velocities into lanes: u[c][node*W + lane].
  alignas(kSimdAlign) Real u[3][kQ2NodesPerEl * W];
  for (int i = 0; i < kQ2NodesPerEl; ++i)
    for (int l = 0; l < W; ++l) {
      const Index base = velocity_dof(nodes[l][i], 0);
      u[0][i * W + l] = xp[base + 0];
      u[1][i * W + l] = xp[base + 1];
      u[2][i * W + l] = xp[base + 2];
    }

  // The batch's geometry: its cache slot, or the stack without a cache.
  ElementGeometryBatch<W> inline_g;
  ElementGeometryBatch<W>* slot = nullptr;
  if (!geometry_.empty()) {
    PT_DEBUG_ASSERT(slot_[elems[0]] >= 0);
    slot = geometry_.data() + slot_[elems[0]];
  }
  ElementGeometryBatch<W>& g = slot != nullptr ? *slot : inline_g;
  const bool compute = slot == nullptr || fill;

  [[maybe_unused]] P1BasisBatch<W> p1;
  [[maybe_unused]] alignas(kSimdAlign) Real pe[kP1NodesPerEl][W];
  [[maybe_unused]] alignas(kSimdAlign) Real flux[kP1NodesPerEl][W];
  if constexpr (Pressure) {
    if (compute) element_geometry_batch<W>(mesh_, elems, g, p1);
    else p1_basis_batch<W>(mesh_, elems, p1);
    for (int k = 0; k < kP1NodesPerEl; ++k)
      for (int l = 0; l < W; ++l) {
        pe[k][l] = pin[pressure_dof(elems[l], k)];
        flux[k][l] = 0.0;
      }
  } else if (compute) {
    element_geometry_batch<W>(mesh_, elems, g);
  }

  alignas(kSimdAlign) Real gref[3][3][kQuadPerEl * W];
  for (int c = 0; c < 3; ++c)
    tensor_gradient_batched<W>(tab.B1, tab.D1, u[c], gref[c][0],
                               gref[c][1], gref[c][2]);

  alignas(kSimdAlign) Real sref[3][3][kQuadPerEl * W];
  for (int q = 0; q < kQuadPerEl; ++q) {
    const Real* ga = &g.gamma[q][0][0]; // ga[(3d + r)*W + l]
    alignas(kSimdAlign) Real G[3][3][W];
    for (int c = 0; c < 3; ++c)
      for (int r = 0; r < 3; ++r) {
        const Real* g0 = &gref[c][0][q * W];
        const Real* g1 = &gref[c][1][q * W];
        const Real* g2 = &gref[c][2][q * W];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          G[c][r][l] = g0[l] * ga[(0 + r) * W + l] +
                       g1[l] * ga[(3 + r) * W + l] +
                       g2[l] * ga[(6 + r) * W + l];
      }

    // Lane gather of eta (strided: one load per element in the batch).
    alignas(kSimdAlign) Real eta[W];
    for (int l = 0; l < W; ++l) eta[l] = coeff_.eta(elems[l], q);

    const Real* wd = g.wdetj[q];
    alignas(kSimdAlign) Real s[3][3][W];
    PT_SIMD
    for (int l = 0; l < W; ++l) {
      const Real Dxx = G[0][0][l], Dyy = G[1][1][l], Dzz = G[2][2][l];
      const Real Dxy = Real(0.5) * (G[0][1][l] + G[1][0][l]);
      const Real Dxz = Real(0.5) * (G[0][2][l] + G[2][0][l]);
      const Real Dyz = Real(0.5) * (G[1][2][l] + G[2][1][l]);
      if constexpr (Pressure) {
        const Real psi1 = p1.psi[q][0][l], psi2 = p1.psi[q][1][l],
                   psi3 = p1.psi[q][2][l];
        const Real pq = pt_muladd(
            pe[3][l], psi3,
            pt_muladd(pe[2][l], psi2, pt_muladd(pe[1][l], psi1, pe[0][l])));
        s[0][0][l] = pt_muladd(2 * eta[l], Dxx, -pq);
        s[1][1][l] = pt_muladd(2 * eta[l], Dyy, -pq);
        s[2][2][l] = pt_muladd(2 * eta[l], Dzz, -pq);
        const Real dv = wd[l] * (Dxx + Dyy + Dzz);
        flux[0][l] = pt_muladd(dv, Real(1), flux[0][l]);
        flux[1][l] = pt_muladd(dv, psi1, flux[1][l]);
        flux[2][l] = pt_muladd(dv, psi2, flux[2][l]);
        flux[3][l] = pt_muladd(dv, psi3, flux[3][l]);
      } else {
        s[0][0][l] = 2 * eta[l] * Dxx;
        s[1][1][l] = 2 * eta[l] * Dyy;
        s[2][2][l] = 2 * eta[l] * Dzz;
      }
      s[0][1][l] = s[1][0][l] = 2 * eta[l] * Dxy;
      s[0][2][l] = s[2][0][l] = 2 * eta[l] * Dxz;
      s[1][2][l] = s[2][1][l] = 2 * eta[l] * Dyz;
    }

    if (newton) {
      alignas(kSimdAlign) Real deta[W], d0[kSymSize][W];
      for (int l = 0; l < W; ++l) {
        deta[l] = coeff_.deta(elems[l], q);
        const Real* d = coeff_.d0(elems[l], q);
        for (int t = 0; t < kSymSize; ++t) d0[t][l] = d[t];
      }
      // The strain invariants recompute bitwise-identically from G, so
      // splitting the Newton add out of the Picard loop keeps every
      // lane's arithmetic equal to the scalar kernel's.
      PT_SIMD
      for (int l = 0; l < W; ++l) {
        const Real Dxx = G[0][0][l], Dyy = G[1][1][l], Dzz = G[2][2][l];
        const Real Dxy = Real(0.5) * (G[0][1][l] + G[1][0][l]);
        const Real Dxz = Real(0.5) * (G[0][2][l] + G[2][0][l]);
        const Real Dyz = Real(0.5) * (G[1][2][l] + G[2][1][l]);
        const Real dd = d0[0][l] * Dxx + d0[1][l] * Dyy + d0[2][l] * Dzz +
                        2 * (d0[3][l] * Dxy + d0[4][l] * Dxz +
                             d0[5][l] * Dyz);
        const Real f = 2 * deta[l] * dd;
        s[0][0][l] += f * d0[0][l];
        s[1][1][l] += f * d0[1][l];
        s[2][2][l] += f * d0[2][l];
        s[0][1][l] += f * d0[3][l];
        s[1][0][l] += f * d0[3][l];
        s[0][2][l] += f * d0[4][l];
        s[2][0][l] += f * d0[4][l];
        s[1][2][l] += f * d0[5][l];
        s[2][1][l] += f * d0[5][l];
      }
    }

    for (int c = 0; c < 3; ++c)
      for (int d = 0; d < 3; ++d) {
        Real* out = &sref[c][d][q * W];
        PT_SIMD
        for (int l = 0; l < W; ++l)
          out[l] = wd[l] * (s[c][0][l] * ga[(3 * d + 0) * W + l] +
                            s[c][1][l] * ga[(3 * d + 1) * W + l] +
                            s[c][2][l] * ga[(3 * d + 2) * W + l]);
      }
  }

  alignas(kSimdAlign) Real ye[3][kQ2NodesPerEl * W] = {};
  for (int c = 0; c < 3; ++c)
    tensor_gradient_transpose_batched<W>(tab.B1, tab.D1, sref[c][0],
                                         sref[c][1], sref[c][2], ye[c]);

  // Lane by lane: the engine's lists hand consecutive, node-sharing
  // elements to one batch, and each node must take them in list order.
  for (int l = 0; l < W; ++l)
    for (int i = 0; i < kQ2NodesPerEl; ++i) {
      const Index base = velocity_dof(nodes[l][i], 0);
      yp[base + 0] += ye[0][i * W + l];
      yp[base + 1] += ye[1][i * W + l];
      yp[base + 2] += ye[2][i * W + l];
    }
  if constexpr (Pressure)
    for (int l = 0; l < W; ++l)
      for (int k = 0; k < kP1NodesPerEl; ++k)
        pout[pressure_dof(elems[l], k)] = -flux[k][l];
}

void TensorViscousOperator::allocate_geometry_cache() const {
  slot_.assign(static_cast<std::size_t>(mesh_.num_elements()), -1);
  Index slots = 0;
  for_each_batch_head<kSolverBatchWidth>(
      [&](Index e) { slot_[e] = slots++; });
  geometry_.resize(static_cast<std::size_t>(slots));
}

template <bool Pressure>
void TensorViscousOperator::sweep_tensor(const Real* xp, Real* yp,
                                         const Real* pin, Real* pout,
                                         bool newton) const {
  const auto& tab = q2_tabulation();
  // The second batched apply fills the geometry cache. An operator applied
  // once (the Newton residual, the lifting) never pays for one.
  const bool fill = batch_width_ != 0 && applies_ == 1;
  if (applies_ < 2) ++applies_;
  if (fill) allocate_geometry_cache();
  sweep(
      yp,
      [&](auto lanes, const Index* elems, Real* w) {
        apply_lanes<decltype(lanes)::value, Pressure>(elems, xp, w, pin, pout,
                                                      fill, newton);
      },
      [&](Index e, Real* w) {
        apply_tensor_element<Pressure>(mesh_, coeff_, tab, newton, e, xp, w,
                                       pin, pout);
      });
}

void TensorViscousOperator::apply_unmasked(const Vector& x, Vector& y,
                                           bool newton) const {
  sweep_tensor<false>(x.data(), y.data(), nullptr, nullptr, newton);
}

void TensorViscousOperator::apply_stokes(const Vector& x, Vector& y,
                                         bool newton) const {
  const Index nu = rows();
  PT_ASSERT(x.size() == nu + num_pressure_dofs(mesh_));
  PT_ASSERT_MSG(!newton || coeff_.has_newton(),
                "Newton term requires allocated Newton coefficients");
  if (y.size() != x.size()) y.resize(x.size());
  const bool masked = bc_ != nullptr && bc_->num_constrained() > 0;
  // The kernel reads the velocity with constrained dofs zeroed — the one
  // copy of the apply — which masks B^T's columns; the identity rows below
  // mask B's rows. Velocity rows go through the sweep (y or the engine's
  // scratch); each element writes its own pressure rows straight into y.
  const Real* xu = masked ? masked_velocity(x).data() : x.data();
  sweep_tensor<true>(xu, y.data(), x.data() + nu, y.data() + nu, newton);
  if (masked) {
    const Real* xp = x.data();
    Real* yp = y.data();
    parallel_for(nu, [&](Index i) {
      if (bc_->is_constrained(i)) yp[i] = xp[i];
    });
  }
}

OperatorCostModel TensorViscousOperator::cost_model() const {
  // §III-D analytic model: 15228 flops; bytes as for MF. Batching changes
  // neither the per-element flop nor data-motion counts — only how many
  // elements share one instruction stream — so the model is width-invariant.
  return {15228.0, 1008.0, 2376.0};
}

} // namespace ptatin
