// The viscous (J_uu) block: four interchangeable operator back-ends.
//
//  - AsmbViscousOperator   : assembled CSR SpMV               (Table I "Assembled")
//  - MfViscousOperator     : matrix-free, dense 81x27 D_e     (Table I "Matrix-free")
//  - TensorViscousOperator : matrix-free, sum-factorized      (Table I "Tensor")
//  - TensorCViscousOperator: stored scaled metric per qpoint  (Table I "Tensor C")
//
// All back-ends enforce Dirichlet constraints by masking (identity on
// constrained dofs), so they are interchangeable as smoother operators on
// any multigrid level. The MF and Tensor back-ends add the Newton
// linearization term eta' (D0 : D(du)) D0 of §III-A to the applies whose
// caller asks for it (the Krylov operator; a smoother never does), so one
// operator serves both linearizations; the assembled and TensorC back-ends
// are Picard-only (they exist to precondition).
// The MF/Tens/TensC back-ends additionally run a cross-element BATCHED
// element sweep (batch_width = 8 = kSolverBatchWidth): W elements are
// gathered into 64-byte-aligned SoA lane buffers and the element kernel runs
// lane-vectorized across them, in the global colored loop and in every
// subdomain-engine sweep alike (docs/KERNELS.md). Batched applies are
// bitwise identical to the scalar path — each lane performs the scalar
// arithmetic in the scalar order, and the lanes scatter one after another —
// so a batched operator is drop-in anywhere the scalar one is, including as
// an MG smoother operator.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "fem/bc.hpp"
#include "fem/dofmap.hpp"
#include "fem/kernel_spec.hpp"
#include "fem/mesh.hpp"
#include "fem/subdomain_engine.hpp"
#include "ksp/operator.hpp"
#include "la/csr.hpp"
#include "stokes/coefficient.hpp"
#include "stokes/geometry.hpp"

namespace ptatin {

/// Flop / byte models per element for the four back-ends, as analyzed in
/// §III-D (Table I). "paper_*" are the published analytic counts.
struct OperatorCostModel {
  double flops_per_element = 0;
  double bytes_perfect = 0;  ///< perfect-cache data motion per element
  double bytes_pessimal = 0; ///< pessimal-cache data motion per element
};

class ViscousOperatorBase : public LinearOperator {
public:
  /// batch_width: 0 = per-element scalar path; 8 = cross-element SIMD
  /// batches. engine: route the unmasked apply through a subdomain-parallel
  /// engine (per-subdomain element sweeps + in-memory halo exchange,
  /// docs/PARALLELISM.md) instead of the global colored loop; borrowed, must
  /// outlive the operator and match its element grid; null = the global
  /// loop. Both matter to the matrix-free back-ends only: the assembled
  /// back-end (a global SpMV, no element sweep) runs the same either way.
  ViscousOperatorBase(const StructuredMesh& mesh, const QuadCoefficients& coeff,
                      const DirichletBc* bc, int batch_width = 0,
                      const SubdomainEngine* engine = nullptr)
      : mesh_(mesh), coeff_(coeff), bc_(bc), batch_width_(batch_width),
        engine_(engine) {
    PT_ASSERT(coeff.num_elements() == mesh.num_elements());
    PT_ASSERT_MSG(batch_width == 0 || batch_width == kSolverBatchWidth,
                  "batch width must be 0 (scalar) or 8");
    PT_ASSERT_MSG(engine == nullptr ||
                      (engine->mx() == mesh.mx() && engine->my() == mesh.my() &&
                       engine->mz() == mesh.mz()),
                  "subdomain engine was built for a different element grid");
  }

  Index rows() const override { return num_velocity_dofs(mesh_); }
  Index cols() const override { return num_velocity_dofs(mesh_); }

  /// Masked Picard apply: identity on constrained dofs, operator on the rest.
  void apply(const Vector& x, Vector& y) const override {
    apply(x, y, /*newton=*/false);
  }
  /// The same, with the Newton linearization term when `newton` (requires
  /// coefficients with allocated Newton state and a back-end that has one).
  void apply(const Vector& x, Vector& y, bool newton) const;

  /// Picard-operator diagonal (1 on constrained dofs).
  Vector diagonal() const override;

  /// The back-end this operator is (GMG builds its first coarse level with
  /// the same one).
  virtual FineOperatorType type() const = 0;
  virtual std::string name() const = 0;
  virtual OperatorCostModel cost_model() const = 0;

  const StructuredMesh& mesh() const { return mesh_; }
  const QuadCoefficients& coefficients() const { return coeff_; }
  const DirichletBc* bc() const { return bc_; }
  int batch_width() const { return batch_width_; }
  const SubdomainEngine* subdomain_engine() const { return engine_; }

protected:
  virtual void apply_unmasked(const Vector& x, Vector& y,
                              bool newton) const = 0;

  /// The first rows() entries of x with the constrained dofs zeroed, in one
  /// pass into the operator's scratch (requires a bc). The masked applies
  /// read their velocity input through it.
  const Vector& masked_velocity(const Vector& x) const;

  /// The element sweep of the matrix-free back-ends at the operator's batch
  /// width, into the rows() velocity entries at y. `efn(e, yp)` adds one
  /// element's contribution into yp;
  /// `lanes(std::integral_constant<int, W>{}, elems, yp)` adds the W
  /// elements elems[0..W) lane by lane, and `efn` takes each ragged tail.
  /// Through the subdomain engine when one is set (per-subdomain scratch +
  /// halo exchange into y), else the global colored loop over a zeroed y.
  /// Either way each element is visited once, by one thread, so a kernel may
  /// also write outputs that belong to its element alone straight to a
  /// global array (the coupled Tens sweep's pressure rows).
  template <class LanesFn, class ElemFn>
  void sweep(Real* y, LanesFn&& lanes, ElemFn&& efn) const;

  /// fn(e) for the first element of every full W-batch that sweep() forms:
  /// the runs of each color in the global loop, or of each subdomain list
  /// under the engine. Each element heads at most one batch.
  template <int W, class Fn>
  void for_each_batch_head(Fn&& fn) const;

  /// "Name" or "Name[bW]" for the batched variants (Table I row labels).
  std::string decorated_name(const char* base) const {
    if (batch_width_ == 0) return base;
    return std::string(base) + "[b" + std::to_string(batch_width_) + "]";
  }

  const StructuredMesh& mesh_;
  const QuadCoefficients& coeff_;
  const DirichletBc* bc_;
  const int batch_width_;
  const SubdomainEngine* const engine_;
  mutable Vector work_;

private:
  template <int W, class LanesFn, class ElemFn>
  void sweep_batches(Real* y, LanesFn& lanes, ElemFn& efn) const;
};

/// Build a viscous back-end from its spec (fem/kernel_spec.hpp) — the one
/// construction path. A batch width outside {0, 8} throws a typed Error for
/// every back-end.
std::unique_ptr<ViscousOperatorBase>
make_viscous_backend(const KernelSpec& spec, const StructuredMesh& mesh,
                     const QuadCoefficients& coeff, const DirichletBc* bc);

// ---------------------------------------------------------------------------

/// Assembled CSR back-end. Assembly uses the Picard element matrices
/// K[(i,c)(i',c')] = sum_q w detJ eta (delta_cc' g_i.g_i' + g_i[c'] g_i'[c]).
class AsmbViscousOperator : public ViscousOperatorBase {
public:
  /// `engine` is only recorded (subdomain_engine()): a global SpMV has no
  /// element sweep to route through it.
  AsmbViscousOperator(const StructuredMesh& mesh, const QuadCoefficients& coeff,
                      const DirichletBc* bc,
                      const SubdomainEngine* engine = nullptr);

  FineOperatorType type() const override {
    return FineOperatorType::kAssembled;
  }
  std::string name() const override { return "Asmb"; }
  OperatorCostModel cost_model() const override;
  Vector diagonal() const override { return a_.diagonal(); }

  const CsrMatrix& matrix() const { return a_; }

protected:
  void apply_unmasked(const Vector& x, Vector& y,
                      bool newton) const override {
    PT_ASSERT_MSG(!newton, "assembled back-end is Picard-only");
    a_.mult(x, y);
  }

private:
  CsrMatrix a_;
};

/// Non-tensor matrix-free back-end (reference implementation, §III-D Eq. 18).
class MfViscousOperator : public ViscousOperatorBase {
public:
  using ViscousOperatorBase::ViscousOperatorBase;
  FineOperatorType type() const override {
    return FineOperatorType::kMatrixFree;
  }
  std::string name() const override { return decorated_name("MF"); }
  OperatorCostModel cost_model() const override;

protected:
  void apply_unmasked(const Vector& x, Vector& y, bool newton) const override;

private:
  /// The W-lane batch kernel: adds elements elems[0..W) of x into yp,
  /// scattering lane by lane.
  template <int W>
  void apply_lanes(const Index* elems, const Real* xp, Real* yp,
                   bool newton) const;
};

/// Sum-factorized tensor-product back-end (§III-D Eq. 19).
///
/// A batched operator caches its quadrature geometry (docs/KERNELS.md
/// "Geometry cache"): on its second apply it stores, for every full batch
/// its sweep forms, the ElementGeometryBatch<W> the kernel computes, and
/// every later apply reads it back, bitwise alike. The mesh coordinates must
/// therefore not move while the operator is alive.
class TensorViscousOperator : public ViscousOperatorBase {
public:
  using ViscousOperatorBase::ViscousOperatorBase;
  FineOperatorType type() const override { return FineOperatorType::kTensor; }
  std::string name() const override { return decorated_name("Tens"); }
  OperatorCostModel cost_model() const override;

  /// The cached geometry's bytes, 2160 per element of a full batch; empty
  /// before the second apply and on the scalar path (the GMG seal reads it).
  std::span<const std::byte> geometry_cache() const {
    return std::as_bytes(std::span(geometry_));
  }

  /// The coupled Stokes apply [y_u; y_p] = [A B; B^T 0] [x_u; x_p] on the
  /// stacked vectors, with B and B^T folded into this operator's element
  /// sweep (docs/KERNELS.md "Coupled Tens sweep"), at its batch width and
  /// through its subdomain engine if set, with A's Newton term when
  /// `newton`. Masked by this operator's constraints the way StokesOperator
  /// masks its CSR blocks: B^T reads the velocity with constrained dofs
  /// zeroed, and constrained velocity rows are the identity.
  void apply_stokes(const Vector& x, Vector& y, bool newton) const;

protected:
  void apply_unmasked(const Vector& x, Vector& y, bool newton) const override;

private:
  /// The element sweep into the velocity rows at yp; with Pressure also the
  /// pressure terms, reading the modes at pin and writing each element's 4
  /// pressure rows at pout.
  template <bool Pressure>
  void sweep_tensor(const Real* xp, Real* yp, const Real* pin, Real* pout,
                    bool newton) const;

  /// The W-lane batch kernel: adds elements elems[0..W) of x into yp,
  /// scattering lane by lane (pin, pout as for sweep_tensor). With a cache
  /// it reads the batch's geometry from its slot, after computing it there
  /// when `fill`; without one it computes it on the stack.
  template <int W, bool Pressure>
  void apply_lanes(const Index* elems, const Real* xp, Real* yp,
                   const Real* pin, Real* pout, bool fill, bool newton) const;

  /// Number the batches of the sweep and allocate their slots, unwritten:
  /// the filling sweep is their first touch.
  void allocate_geometry_cache() const;

  /// Applies so far, counted up to 2: the second one fills the cache.
  mutable int applies_ = 0;
  /// Per element, the slot of the batch it heads (-1 if none).
  mutable std::vector<Index> slot_;
  mutable AlignedVector<ElementGeometryBatch<kSolverBatchWidth>> geometry_;
};

/// Stored-coefficient tensor back-end ("Tensor C"): per quadrature point the
/// scaled metric Gtilde = sqrt(w detJ eta) * (dxi/dx) is precomputed at
/// construction, 9*27 stored scalars per element, on the scalar path too.
/// The batched Tens operator caches its geometry as well (10*27 scalars, η
/// still read per apply), so what TensC adds is folding η into the metric.
/// Isotropic-Picard only (the paper notes this variant pays off for
/// anisotropic coefficients; for isotropic eta it is marginal — we reproduce
/// that finding).
class TensorCViscousOperator : public ViscousOperatorBase {
public:
  TensorCViscousOperator(const StructuredMesh& mesh,
                         const QuadCoefficients& coeff, const DirichletBc* bc,
                         int batch_width = 0,
                         const SubdomainEngine* engine = nullptr);
  FineOperatorType type() const override { return FineOperatorType::kTensorC; }
  std::string name() const override { return decorated_name("TensC"); }
  OperatorCostModel cost_model() const override;

protected:
  void apply_unmasked(const Vector& x, Vector& y, bool newton) const override;

private:
  /// The W-lane batch kernel: adds elements elems[0..W) of x into yp,
  /// scattering lane by lane.
  template <int W>
  void apply_lanes(const Index* elems, const Real* xp, Real* yp) const;

  AlignedVector<Real> gtilde_; ///< 9 * 27 * num_elements
};

// ---------------------------------------------------------------------------

/// Picard element matrix of element e, rows and columns in the local dof
/// order of element_velocity_dofs.
void viscous_element_matrix(const StructuredMesh& mesh,
                            const QuadCoefficients& coeff, Index e,
                            Real Ke[3 * kQ2NodesPerEl][3 * kQ2NodesPerEl]);

/// Assemble the Picard viscous matrix (no BC treatment) on the closed-form
/// lattice pattern (fem/lattice_pattern.hpp).
CsrMatrix assemble_viscous_matrix(const StructuredMesh& mesh,
                                  const QuadCoefficients& coeff);

/// Compute the Picard-operator diagonal by element loops (no BC treatment).
Vector compute_viscous_diagonal(const StructuredMesh& mesh,
                                const QuadCoefficients& coeff);

/// Extent of one color (parity class) of the element lattice. Same-colored
/// Q2 elements share no nodes, so element scatters within a color never race.
struct ColorExtent {
  Index ox, oy, oz; ///< lattice offset of the color
  Index cx, cy, cz; ///< elements of this color per direction
  Index count() const { return cx * cy * cz; }
  /// t-th element of the color (lexicographic in the color sub-lattice).
  Index element(const StructuredMesh& mesh, Index t) const {
    const Index ei = ox + 2 * (t % cx);
    const Index ej = oy + 2 * ((t / cx) % cy);
    const Index ek = oz + 2 * (t / (cx * cy));
    return mesh.element_index(ei, ej, ek);
  }
};

inline ColorExtent color_extent(const StructuredMesh& mesh, int color) {
  ColorExtent ce;
  ce.ox = color & 1;
  ce.oy = (color >> 1) & 1;
  ce.oz = (color >> 2) & 1;
  ce.cx = (mesh.mx() - ce.ox + 1) / 2;
  ce.cy = (mesh.my() - ce.oy + 1) / 2;
  ce.cz = (mesh.mz() - ce.oz + 1) / 2;
  if (ce.cx <= 0 || ce.cy <= 0 || ce.cz <= 0) ce.cx = ce.cy = ce.cz = 0;
  return ce;
}

/// Loop over elements in 8 independent colors. All 8 colors run inside ONE
/// parallel region (barriers between colors), so an operator apply pays a
/// single fork/join instead of eight (§III-D hot path).
template <class Fn>
void for_each_element_colored(const StructuredMesh& mesh, Fn&& fn) {
  parallel_for_phased(
      8, [&](int color) { return color_extent(mesh, color).count(); },
      [&](int color, Index t) {
        fn(color_extent(mesh, color).element(mesh, t));
      });
}

/// Batched colored loop: within each color, consecutive runs of W elements
/// form one batch handed to `bfn(const Index elems[W])`; the ragged tail of
/// each color (count % W elements) goes one-by-one to the scalar `sfn(e)`.
/// Batches are disjoint within a color, so `bfn` may scatter to the W
/// elements' nodes without synchronization.
template <int W, class BatchFn, class ScalarFn>
void for_each_element_batched_colored(const StructuredMesh& mesh, BatchFn&& bfn,
                                      ScalarFn&& sfn) {
  parallel_for_phased(
      8,
      [&](int color) {
        const Index n = color_extent(mesh, color).count();
        return n / W + n % W; // full batches, then tail elements
      },
      [&](int color, Index i) {
        const ColorExtent ce = color_extent(mesh, color);
        const Index nb = ce.count() / W;
        if (i < nb) {
          Index elems[W];
          for (int l = 0; l < W; ++l) elems[l] = ce.element(mesh, i * W + l);
          bfn(elems);
        } else {
          sfn(ce.element(mesh, nb * W + (i - nb)));
        }
      });
}

template <class LanesFn, class ElemFn>
void ViscousOperatorBase::sweep(Real* y, LanesFn&& lanes,
                                ElemFn&& efn) const {
  if (batch_width_ == kSolverBatchWidth) {
    sweep_batches<kSolverBatchWidth>(y, lanes, efn);
    return;
  }
  if (engine_ != nullptr) {
    engine_->apply_nodes(3, y, efn);
    return;
  }
  parallel_for(rows(), [&](Index i) { y[i] = 0.0; });
  for_each_element_colored(mesh_, [&](Index e) { efn(e, y); });
}

template <int W, class Fn>
void ViscousOperatorBase::for_each_batch_head(Fn&& fn) const {
  if (engine_ != nullptr) {
    // apply_nodes_batched's runs: W consecutive entries of each list.
    for (Index s = 0; s < engine_->num_subdomains(); ++s)
      for (const std::vector<Index>* list :
           {&engine_->boundary_elements(s), &engine_->interior_elements(s)})
        for (std::size_t i = 0; i + W <= list->size(); i += W) fn((*list)[i]);
    return;
  }
  // for_each_element_batched_colored's runs: W consecutive color members.
  for (int color = 0; color < 8; ++color) {
    const ColorExtent ce = color_extent(mesh_, color);
    for (Index b = 0; b < ce.count() / W; ++b) fn(ce.element(mesh_, b * W));
  }
}

template <int W, class LanesFn, class ElemFn>
void ViscousOperatorBase::sweep_batches(Real* y, LanesFn& lanes,
                                        ElemFn& efn) const {
  const auto bfn = [&](const Index* elems, Real* yp) {
    lanes(std::integral_constant<int, W>{}, elems, yp);
  };
  if (engine_ != nullptr) {
    engine_->apply_nodes_batched<W>(3, y, bfn, efn);
    return;
  }
  parallel_for(rows(), [&](Index i) { y[i] = 0.0; });
  for_each_element_batched_colored<W>(
      mesh_, [&](const Index* elems) { bfn(elems, y); },
      [&](Index e) { efn(e, y); });
}

} // namespace ptatin
